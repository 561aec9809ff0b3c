"""Hierarchical semi-blind deconvolution model on an extended cyclic lattice.

Lattice/padding bookkeeping, stationary correlation builders, the three-step
blur prior, the hard-constrained image prior, the noise model with its
derived variance, inverse-gamma hyperpriors, and the unnormalized log
posterior over (d_u, c_u, omega, sigma_c^2, sigma_w^2, zeta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import (
    DimensionMismatch,
    MaskNotKronecker,
    NonPositiveVariance,
    OddLattice,
)
from .fourier import CirculantMatrix, HalfSpectrum, half_quadform, half_weights, rdft2
from .gauss import krige, spd_factor, spd_solve


@dataclass(frozen=True)
class CorrelationSpec:
    """Stationary correlation exp(-(h/phi)^p) in great-circle distance h."""

    phi: float
    p: float

    def __post_init__(self):
        if self.phi <= 0:
            raise DimensionMismatch("correlation range phi must be positive")
        if not 0 < self.p <= 2:
            raise DimensionMismatch("smoothness p must lie in (0, 2]")


def build_correlation(n, spec: CorrelationSpec) -> CirculantMatrix:
    """Order-n circulant correlation matrix on the cyclic lattice."""
    if n < 1:
        raise DimensionMismatch("correlation order must be >= 1")
    j = np.arange(n)
    h = np.minimum(j, n - j)
    base = np.exp(-((h / spec.phi) ** spec.p))
    return CirculantMatrix.from_base(base)


@dataclass(frozen=True)
class HyperParams:
    """Fixed hyperparameters: inverse-gamma shapes/scales, correlation specs, psi."""

    alpha_c: float = 2.00001
    beta_c: float = 1.0 / 500.0
    alpha_w: float = 2.01
    beta_w: float = 10.0
    alpha_zeta: float = 3.0
    beta_zeta: float = 0.1
    psi: float = 1.0
    blur: CorrelationSpec = field(default_factory=lambda: CorrelationSpec(2.0, 1.98))
    image_v: CorrelationSpec = field(default_factory=lambda: CorrelationSpec(1.5, 1.0))
    image_h: CorrelationSpec = field(default_factory=lambda: CorrelationSpec(1.5, 1.0))
    noise_v: CorrelationSpec = field(default_factory=lambda: CorrelationSpec(1.5, 1.0))
    noise_h: CorrelationSpec = field(default_factory=lambda: CorrelationSpec(1.5, 1.0))

    def __post_init__(self):
        for name in ("alpha_c", "beta_c", "alpha_w", "beta_w",
                     "alpha_zeta", "beta_zeta", "psi"):
            if getattr(self, name) <= 0:
                raise NonPositiveVariance(f"hyperparameter {name} must be positive")


@dataclass(frozen=True)
class LatticeSpec:
    """Observed window embedded in the extended cyclic lattice.

    Vertical padding of ceil(m_v/2) rows goes on each side of the observed
    block; horizontal padding of m_h columns is appended after the last
    observed column and wraps around cyclically.  ``image_pixels`` holds the
    m exactly observed pixels in extended coordinates, sorted column-major.
    """

    n_v_obs: int
    n_h_obs: int
    m_v: int
    m_h: int
    blur_len: int
    image_pixels: np.ndarray    # (m, 2) extended (row, col)

    def __post_init__(self):
        if self.n_v_obs < 1 or self.n_h_obs < 1:
            raise DimensionMismatch("observed dimensions must be positive")
        if self.m_v < 0 or self.m_h < 0:
            raise DimensionMismatch("padding must be nonnegative")
        if self.n_v % 2:
            raise OddLattice(
                f"extended vertical order {self.n_v} is odd; "
                "the centering permutation needs an even order"
            )
        if not 1 <= self.blur_len <= self.n_v:
            raise DimensionMismatch("blur length must lie in [1, n_v]")
        px = np.asarray(self.image_pixels, dtype=int).reshape(-1, 2)
        if px.size:
            if px[:, 0].min() < 0 or px[:, 0].max() >= self.n_v:
                raise DimensionMismatch("image pixel row outside lattice")
            if px[:, 1].min() < 0 or px[:, 1].max() >= self.n_h:
                raise DimensionMismatch("image pixel column outside lattice")
            order = np.lexsort((px[:, 0], px[:, 1]))
            px = px[order]
            if len(np.unique(px[:, 0] + px[:, 1] * self.n_v)) != len(px):
                raise DimensionMismatch("duplicate image constraint pixels")
        object.__setattr__(self, "image_pixels", px)

    @classmethod
    def create(cls, n_v_obs, n_h_obs, blur_len, m_v=None, m_h=None,
               image_rows=(), image_cols=(), image_pixels=()):
        """Build a lattice from observed-window coordinates.

        Default padding is m_v = ceil(n_v_obs/2) rows and m_h = n_h_obs
        columns.  Image constraints can be given either as a row-set x
        column-set product (``image_rows``/``image_cols``) or as explicit
        (row, col) pairs; all in observed-window coordinates.
        """
        if m_v is None:
            m_v = (n_v_obs + 1) // 2
        if m_h is None:
            m_h = n_h_obs
        pad_top = (m_v + 1) // 2
        pixels = []
        if len(image_rows) or len(image_cols):
            if image_pixels:
                raise DimensionMismatch("give image_rows/cols or image_pixels, not both")
            for c in image_cols:
                for r in image_rows:
                    pixels.append((r, c))
        else:
            pixels = [tuple(p) for p in image_pixels]
        for r, c in pixels:
            if not (0 <= r < n_v_obs and 0 <= c < n_h_obs):
                raise DimensionMismatch(f"image pixel ({r}, {c}) outside observed window")
        ext = np.array([(r + pad_top, c) for r, c in pixels], dtype=int).reshape(-1, 2)
        return cls(n_v_obs, n_h_obs, int(m_v), int(m_h), int(blur_len), ext)

    # --- derived geometry ---

    @property
    def pad_top(self):
        return (self.m_v + 1) // 2

    @property
    def n_v(self):
        return self.n_v_obs + 2 * self.pad_top

    @property
    def n_h(self):
        return self.n_h_obs + self.m_h

    @property
    def n(self):
        return self.n_v * self.n_h

    @property
    def data_rows(self):
        return np.arange(self.pad_top, self.pad_top + self.n_v_obs)

    @property
    def data_cols(self):
        return np.arange(self.n_h_obs)

    @property
    def blur_support(self):
        k = self.blur_len
        start = self.n_v // 2 - k // 2
        return np.arange(start, start + k)

    @property
    def blur_free(self):
        return np.setdiff1d(np.arange(self.n_v), self.blur_support)

    @property
    def n_obs(self):
        return self.n_v_obs * self.n_h_obs

    @property
    def m(self):
        return len(self.image_pixels)

    def data_flat_index(self):
        """Column-major flat indices of the observed data nodes."""
        rr, cc = np.meshgrid(self.data_rows, self.data_cols, indexing="ij")
        return np.ravel(rr + cc * self.n_v, order="F")

    def aux_flat_index(self):
        return np.setdiff1d(np.arange(self.n), self.data_flat_index())

    def image_flat_index(self):
        px = self.image_pixels
        return px[:, 0] + px[:, 1] * self.n_v

    def image_kron_factors(self):
        """(rows, cols) if the constrained pixels form a row-set x column-set grid."""
        px = self.image_pixels
        if len(px) == 0:
            return np.empty(0, dtype=int), np.empty(0, dtype=int)
        rows = np.unique(px[:, 0])
        cols = np.unique(px[:, 1])
        if len(rows) * len(cols) != len(px):
            return None
        want = {(r, c) for c in cols for r in rows}
        if want != {tuple(p) for p in px}:
            return None
        return rows, cols


@dataclass(frozen=True)
class BlurPrior:
    """Three-step effective blur prior.

    A stationary circulant on one column is conditioned to vanish off the
    central support; the k x k block of the conditioned correlation is the
    full-rank effective-blur correlation.  ``free`` holds the n_v - k
    coordinates off the support and ``free_offsets`` their cyclic offsets,
    so ``base[free_offsets]`` is the free block of a circulant with ``base``.
    ``theta`` is the half spectrum of R_w.  ``impulse_eigs`` (k x half
    rows) holds the half column eigenvalues of the shift operators
    dW0/domega_i, so omega @ impulse_eigs are those of the blur, and
    ``impulse_eigs_w`` the same times the row weights.
    """

    r_w: CirculantMatrix
    r_w_tilde: np.ndarray
    r_omega: np.ndarray
    chol_r_omega: np.ndarray
    logdet_r_omega: float
    free: np.ndarray
    free_offsets: np.ndarray
    theta: np.ndarray
    impulse_eigs: np.ndarray
    impulse_eigs_w: np.ndarray

    @property
    def k(self):
        return self.r_omega.shape[0]

    def solve(self, rhs):
        # LAPACK directly: the same solve as cho_solve, without its checks,
        # which cost more than the k x k solve itself
        return lapack.dpotrs(self.chol_r_omega, rhs, lower=1)[0]

    def sample_omega(self, sigma_w2, rng, size=None):
        shape = (self.k,) if size is None else (int(size), self.k)
        z = rng.standard_normal(shape)
        return np.sqrt(sigma_w2) * z @ self.chol_r_omega.T


def build_blur_prior(lattice: LatticeSpec, hp: HyperParams) -> BlurPrior:
    n_v, k = lattice.n_v, lattice.blur_len
    if k >= n_v:
        raise DimensionMismatch("effective blur must be shorter than the column")
    r_w = build_correlation(n_v, hp.blur)
    dense = r_w.dense().real
    free = lattice.blur_free
    gram = dense[np.ix_(free, free)]
    sweep = spd_solve(gram, dense[np.ix_(free, np.arange(n_v))])
    r_tilde = dense - dense[:, free] @ sweep
    r_tilde = 0.5 * (r_tilde + r_tilde.T)
    sup = lattice.blur_support
    r_omega = r_tilde[np.ix_(sup, sup)]
    r_omega = 0.5 * (r_omega + r_omega.T)
    chol = spd_factor(r_omega)[0]
    chol = np.tril(chol)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    free_offsets = (free[:, None] - free[None, :]) % n_v
    weights = half_weights(n_v)
    impulse = np.exp(-2j * np.pi * np.outer(sup - n_v // 2, np.arange(weights.size)) / n_v)
    return BlurPrior(r_w, r_tilde, r_omega, chol, logdet, free, free_offsets,
                     r_w.eigs.real[:weights.size], impulse, impulse * weights)


def embed_blur(omega, lattice: LatticeSpec):
    """Zero-pad the effective blur onto the full column."""
    w = np.zeros(lattice.n_v)
    w[lattice.blur_support] = omega
    return w


@dataclass(frozen=True)
class ImagePrior:
    """Zero-mean separable image prior with m exactly observed pixels.

    ``theta`` and ``base`` are the eigenvalue and base grids of the
    correlation BCCB R_c = R_{c,h} (x) R_{c,v}.  ``quad_weights`` is the row
    weights over ``theta`` on the half grid, so ``half_quadform(rdft2(c),
    quad_weights)`` is c^T R_c^{-1} c, and ``logdet_theta`` is log|R_c|.
    ``pixel_index`` holds the (rows, cols) of the constrained pixels and
    ``pixel_offsets`` their m x m cyclic row and column offsets, so
    ``pixel_block = base[pixel_offsets]`` is the pixel block of R_c and
    ``pixel_chol`` its lower Cholesky factor, as a ``cho_factor`` pair with
    a zero upper triangle.  ``mu_hat`` is the unitary half spectrum of the
    prior mean ``mu_tilde`` and ``mu_hat_conj`` its conjugate.

    The pixels touch only the constrained columns C and their cyclic
    differences J, so a transform of a grid held on them needs one column
    FFT and a small DFT E_X = exp(-2 pi i c l / n_h), c in X, along the rows,
    stored with the marginal potential's scales: ``col_dft`` (|C| x n_h) is
    E_C / sqrt(n), ``col_idft`` conj(E_C) n_v / sqrt(n) and ``diff_dft``
    (|J| x n_h) E_J / n_h.  Flat in an n_v x |C| grid, ``pixel_flat``
    indexes the pixels and ``gather_flat`` (m x k) them at rows shifted
    cyclically by the blur support offsets; ``offset_slots`` indexes their
    m x m offsets, flat, in an n_v x |J| grid.  ``tril_weight`` (1 on the
    diagonal, 2 below) sums a symmetric m x m matrix against a grid even in
    the offsets from its lower triangle.  The pixels may lie anywhere.
    """

    r_cv: CirculantMatrix
    r_ch: CirculantMatrix
    theta: np.ndarray
    base: np.ndarray
    quad_weights: np.ndarray
    logdet_theta: float
    c_obs: np.ndarray
    mu_tilde: np.ndarray
    mu_hat: np.ndarray
    mu_hat_conj: np.ndarray
    pixel_index: tuple
    pixel_offsets: tuple
    pixel_block: np.ndarray
    pixel_chol: tuple
    col_dft: np.ndarray
    col_idft: np.ndarray
    diff_dft: np.ndarray
    pixel_flat: np.ndarray
    gather_flat: np.ndarray
    offset_slots: np.ndarray
    tril_weight: np.ndarray

    @property
    def m(self):
        return self.c_obs.size


def build_image_prior(lattice: LatticeSpec, hp: HyperParams, c_obs,
                      require_kron=False) -> ImagePrior:
    """Constrained image prior; the mean solves the Kriging system for c_o."""
    r_cv = build_correlation(lattice.n_v, hp.image_v)
    r_ch = build_correlation(lattice.n_h, hp.image_h)
    theta = np.outer(r_cv.eigs.real, r_ch.eigs.real)
    base = np.outer(r_cv.base, r_ch.base)
    c_obs = np.asarray(c_obs, dtype=float).ravel()
    px = lattice.image_pixels
    if c_obs.size != len(px):
        raise DimensionMismatch("c_o length does not match the constraint mask")

    if require_kron and lattice.image_kron_factors() is None:
        raise MaskNotKronecker(
            "the constrained pixels are not a rows x columns product"
        )

    index = (px[:, 0], px[:, 1])
    offsets = ((px[:, 0][:, None] - px[:, 0][None, :]) % lattice.n_v,
               (px[:, 1][:, None] - px[:, 1][None, :]) % lattice.n_h)
    pixel_block = base[offsets]
    chol, lower = spd_factor(pixel_block)
    pixel_chol = (np.tril(chol), lower)
    half = theta[:lattice.n_v // 2 + 1]
    # the constrained prior mean is a zero field Kriged onto c_o
    mu = krige(np.zeros(theta.shape), half, index,
               scipy.linalg.cho_solve(pixel_chol, -c_obs), c_obs)
    mu_hat = rdft2(mu)
    # constrained columns C and their cyclic differences J, with the row
    # DFTs restricted to them
    n_v, n_h = lattice.n_v, lattice.n_h
    con_cols, col_slot = np.unique(px[:, 1], return_inverse=True)
    diffs, diff_slot = np.unique(offsets[1], return_inverse=True)
    freqs = 2j * np.pi * np.arange(n_h) / n_h
    offset_slots = offsets[0] * diffs.size + diff_slot.reshape(offsets[1].shape)
    col_dft = np.exp(-np.outer(con_cols, freqs)) / np.sqrt(lattice.n)
    shifted = (px[:, :1] + lattice.blur_support - n_v // 2) % n_v
    return ImagePrior(r_cv, r_ch, theta, base, _quad_weights(half),
                      float(np.sum(np.log(theta))), c_obs, mu, mu_hat,
                      np.conj(mu_hat), index, offsets, pixel_block, pixel_chol,
                      col_dft, np.conj(col_dft) * n_v,
                      np.exp(-np.outer(diffs, freqs)) / n_h,
                      px[:, 0] * con_cols.size + col_slot,
                      shifted * con_cols.size + col_slot[:, None], offset_slots,
                      np.tri(len(px)) + np.tri(len(px), k=-1))


def _quad_weights(half_theta):
    """Row weights over a half eigen grid: the weights of ``half_quadform``."""
    return half_weights(2 * (half_theta.shape[0] - 1))[:, None] / half_theta


@dataclass(frozen=True)
class NoiseModel:
    """Separable stationary noise with derived variance psi*sigma_c^2*sigma_w^2*zeta.

    ``chol_obs_v`` and ``chol_obs_h`` are the ``cho_factor`` pairs of R_{d,v}
    on the observed rows and of R_{d,h} on the observed columns; together
    they solve the Kronecker Gram of the observed data window.
    ``inv_theta_v`` and ``inv_theta_h`` are 1/theta of the two factors,
    the vertical one on the half rows; ``quad_weights`` and ``logdet_theta``
    are as in ``ImagePrior``.
    """

    r_dv: CirculantMatrix
    r_dh: CirculantMatrix
    theta: np.ndarray
    base: np.ndarray
    inv_theta_v: np.ndarray
    inv_theta_h: np.ndarray
    quad_weights: np.ndarray
    logdet_theta: float
    chol_obs_v: tuple
    chol_obs_h: tuple
    psi: float

    def sigma_d2(self, sigma_c2, sigma_w2, zeta):
        return self.psi * sigma_c2 * sigma_w2 * zeta


def build_noise_model(lattice: LatticeSpec, hp: HyperParams) -> NoiseModel:
    r_dv = build_correlation(lattice.n_v, hp.noise_v)
    r_dh = build_correlation(lattice.n_h, hp.noise_h)
    theta = np.outer(r_dv.eigs.real, r_dh.eigs.real)
    base = np.outer(r_dv.base, r_dh.base)
    half = theta[:lattice.n_v // 2 + 1]
    rows, cols = lattice.data_rows, lattice.data_cols
    chol_obs_v = spd_factor(r_dv.dense().real[np.ix_(rows, rows)])
    chol_obs_h = spd_factor(r_dh.dense().real[np.ix_(cols, cols)])
    return NoiseModel(r_dv, r_dh, theta, base,
                      1.0 / r_dv.eigs.real[:half.shape[0]], 1.0 / r_dh.eigs.real,
                      _quad_weights(half), float(np.sum(np.log(theta))),
                      chol_obs_v, chol_obs_h, hp.psi)


@dataclass(frozen=True)
class SbdModel:
    """Immutable bundle of lattice geometry, priors, and noise structure.

    ``aux_index`` holds the column-major flat indices of the padding data
    nodes and ``spectrum`` the half-spectrum constants of the lattice.
    """

    lattice: LatticeSpec
    hp: HyperParams
    blur: BlurPrior
    image: ImagePrior
    noise: NoiseModel
    aux_index: np.ndarray
    spectrum: HalfSpectrum

    @classmethod
    def build(cls, lattice: LatticeSpec, hp: HyperParams = None, c_obs=(),
              require_kron=False):
        hp = hp if hp is not None else HyperParams()
        return cls(
            lattice,
            hp,
            build_blur_prior(lattice, hp),
            build_image_prior(lattice, hp, c_obs, require_kron=require_kron),
            build_noise_model(lattice, hp),
            lattice.aux_flat_index(),
            HalfSpectrum.build(lattice.n_v, lattice.n_h),
        )


@dataclass
class ModelState:
    """Current values of one chain; single-owner, mutated in place by sweeps."""

    omega: np.ndarray
    w_star: np.ndarray
    c: np.ndarray          # extended image grid, constrained pixels held at c_o
    d: np.ndarray          # extended data grid, observed nodes held at d_o
    sigma_c2: float
    sigma_w2: float
    zeta: float
    psi: float = 1.0

    @property
    def sigma_d2(self):
        return self.psi * self.sigma_c2 * self.sigma_w2 * self.zeta

    def copy(self):
        return ModelState(self.omega.copy(), self.w_star.copy(), self.c.copy(),
                          self.d.copy(), self.sigma_c2, self.sigma_w2,
                          self.zeta, self.psi)

    def check(self, model: SbdModel):
        lat = model.lattice
        if self.omega.shape != (lat.blur_len,) or self.w_star.shape != (lat.n_v,):
            raise DimensionMismatch("blur state does not match the lattice")
        if self.c.shape != (lat.n_v, lat.n_h) or self.d.shape != (lat.n_v, lat.n_h):
            raise DimensionMismatch("field state does not match the lattice")


def ig_logpdf(x, alpha, beta):
    """Inverse-gamma log density."""
    if x <= 0:
        raise NonPositiveVariance("inverse-gamma variable must be positive")
    return (alpha * np.log(beta) - math.lgamma(alpha)
            - (alpha + 1) * np.log(x) - beta / x)


def gaussian_field_logpdf(quad, logdet_theta, n, marginal_var):
    """Log density of N(0, marginal_var * R) for a real field on the lattice.

    ``quad`` is x^T R^{-1} x, as ``half_quadform`` gives it, and
    ``logdet_theta`` log|R| for the n x n correlation R.
    """
    logdet = logdet_theta + n * np.log(marginal_var)
    return -0.5 * (n * np.log(2.0 * np.pi) + logdet + quad / marginal_var)


def log_posterior_unnorm(state: ModelState, model: SbdModel):
    """Sum of the six log factors of the posterior, up to the evidence constant."""
    if min(state.sigma_c2, state.sigma_w2, state.zeta) <= 0:
        raise NonPositiveVariance("variance parameters must be positive")
    state.check(model)
    noise, image, n = model.noise, model.image, model.lattice.n
    chat = rdft2(state.c)
    # the column convolution commutes with the DFT along the rows
    resid = rdft2(state.d) - model.spectrum.kernel_eigs(state.w_star)[:, None] * chat
    lik = gaussian_field_logpdf(half_quadform(resid, noise.quad_weights),
                                noise.logdet_theta, n, state.sigma_d2)
    img = gaussian_field_logpdf(half_quadform(chat, image.quad_weights),
                                image.logdet_theta, n, state.sigma_c2)

    k = model.lattice.blur_len
    quad_w = state.omega @ model.blur.solve(state.omega) / state.sigma_w2
    blur = -0.5 * (k * np.log(2.0 * np.pi) + k * np.log(state.sigma_w2)
                   + model.blur.logdet_r_omega + quad_w)

    hp = model.hp
    hyper = (ig_logpdf(state.sigma_c2, hp.alpha_c, hp.beta_c)
             + ig_logpdf(state.sigma_w2, hp.alpha_w, hp.beta_w)
             + ig_logpdf(state.zeta, hp.alpha_zeta, hp.beta_zeta))
    return lik + img + blur + hyper
