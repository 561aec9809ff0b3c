"""Conditional Gaussian machinery.

Dense conditional parameters, Fourier-domain sampling of stationary fields,
conditioning by Kriging, and evaluation of singular constrained densities.
``krige`` is the one Kriging step the samplers use: for a circulant or BCCB
covariance the correction is one FFT pair.  ``condition_by_kriging`` is its
dense reference on explicit covariance columns.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConstraintViolated,
    DimensionMismatch,
    IllConditioned,
    NegativeEigenvalue,
    NuggetRetry,
    SingularConstraintGram,
    SingularInnovation,
)
from .fourier import half_weights

#: eigenvalues of a covariance more negative than -NEG_EIG_RTOL * max are rejected
NEG_EIG_RTOL = 1e-10


def spd_factor(mat):
    """Cholesky with one nugget retry.

    On factorization failure a nugget of 1e-10 * trace/n is added once and a
    ``NuggetRetry`` warning is issued; the near-singular small solves come
    from long-range correlation matrices.
    """
    mat = np.asarray(mat, dtype=float)
    try:
        return scipy.linalg.cho_factor(mat, lower=True)
    except scipy.linalg.LinAlgError:
        warnings.warn(NuggetRetry(f"{mat.shape[0]}x{mat.shape[0]} Cholesky "
                                  "factorization needed the nugget retry"),
                      stacklevel=2)
        nugget = 1e-10 * np.trace(mat) / mat.shape[0]
        try:
            return scipy.linalg.cho_factor(
                mat + nugget * np.eye(mat.shape[0]), lower=True
            )
        except scipy.linalg.LinAlgError as exc:
            raise IllConditioned("matrix not factorizable after nugget retry") from exc


def spd_solve(mat, rhs):
    return scipy.linalg.cho_solve(spd_factor(mat), rhs)


@dataclass(frozen=True)
class HardConstraint:
    """Hard linear constraints A x = b with A a coordinate selection matrix."""

    selector: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        sel = np.asarray(self.selector, dtype=int)
        val = np.asarray(self.values, dtype=float)
        if sel.ndim != 1 or val.ndim != 1 or sel.size != val.size:
            raise DimensionMismatch("selector and values must be equal-length vectors")
        if sel.size and (np.any(np.diff(sel) <= 0) or sel[0] < 0):
            raise DimensionMismatch("selector indices must be strictly increasing and nonnegative")
        object.__setattr__(self, "selector", sel)
        object.__setattr__(self, "values", val)

    @property
    def size(self):
        return self.selector.size


@dataclass(frozen=True)
class FourierGaussian:
    """Real Gaussian field in the Fourier domain: half-spectrum mean plus
    covariance eigenvalues.

    ``n`` is the length of the field along axis 0, the half axis.
    ``mean_hat`` is the unitary half spectrum of the mean, ``rfft`` of a
    column or ``fourier.rdft2`` of a grid, with ``n//2 + 1`` rows;
    ``eig_cov`` the matching leading rows of the real covariance
    eigenvalues.  A full spectrum is refused, as its row count differs.
    """

    mean_hat: np.ndarray
    eig_cov: np.ndarray
    n: int

    def __post_init__(self):
        mean_hat = np.asarray(self.mean_hat, dtype=complex)
        if mean_hat.ndim == 0 or mean_hat.shape[0] != self.n // 2 + 1:
            raise DimensionMismatch(
                f"expected a half spectrum with {self.n // 2 + 1} rows for a "
                f"field of length {self.n}, got shape {mean_hat.shape}")
        eig = np.asarray(self.eig_cov)
        if np.iscomplexobj(eig):
            if np.abs(eig.imag).max(initial=0.0) > NEG_EIG_RTOL * max(
                np.abs(eig).max(initial=0.0), 1.0
            ):
                raise NegativeEigenvalue("covariance eigenvalues must be real")
            eig = eig.real
        eig = np.asarray(eig, dtype=float)
        if eig.shape != mean_hat.shape:
            raise DimensionMismatch("mean and eigenvalue shapes differ")
        floor = -NEG_EIG_RTOL * max(eig.max(initial=0.0), 1e-300)
        if eig.min(initial=0.0) < floor:
            raise NegativeEigenvalue(
                f"covariance eigenvalue {eig.min():g} below tolerance"
            )
        object.__setattr__(self, "mean_hat", mean_hat)
        object.__setattr__(self, "eig_cov", np.maximum(eig, 0.0))


@functools.lru_cache(maxsize=64)
def _draw_scale(n, ndim):
    # variance share of the real and of the imaginary part of each
    # half-spectrum entry: 1/2 on rows with a dropped partner; on the rows
    # 0 and n/2 the inverse transform keeps only the Hermitian part of the
    # row, which halves the variance again, so they take the full share
    scale = 1.0 / half_weights(n)
    scale = scale.reshape((-1,) + (1,) * (ndim - 1))
    scale.flags.writeable = False
    return scale


def sample_fourier_gaussian(g: FourierGaussian, rng, size=None):
    """Draw real fields from a stationary Gaussian given in the Fourier domain.

    Draws complex normals z on the half spectrum only, one real normal per
    field entry plus one per column on each of the rows 0 and n/2, and
    returns the unitary inverse real transform of mean_hat + s * z, with
    s^2 the eigenvalue over the row weight (Wood & Chan 1994; Dietrich &
    Newsam 1997).  The result has covariance exactly equal to the
    circulant/BCCB matrix with those eigenvalues.
    """
    shape = g.mean_hat.shape
    ndim = len(shape)
    batch = () if size is None else (int(size),)
    z = rng.standard_normal(batch + shape + (2,)).view(complex).reshape(batch + shape)
    xhat = g.mean_hat + np.sqrt(g.eig_cov * _draw_scale(g.n, ndim)) * z
    # the real transform runs along the half axis, listed last
    axes = tuple(range(-1, -ndim - 1, -1))
    return np.fft.irfftn(xhat, s=shape[:0:-1] + (g.n,), axes=axes, norm="ortho")


def conditional_params(mu, sigma, a, sigma_e, y):
    """Gaussian conditional mean and covariance given A x + e = y.

    ``a`` is either a selection index vector or a dense constraint matrix;
    ``sigma_e`` the innovation covariance (0 or None for hard constraints).
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    n = mu.size
    a = np.asarray(a)
    if a.ndim == 1:
        sel = a.astype(int)
        a_mat = np.zeros((sel.size, n))
        a_mat[np.arange(sel.size), sel] = 1.0
    else:
        a_mat = a.astype(float)
    k = a_mat.shape[0]
    if sigma_e is None:
        sigma_e = np.zeros((k, k))
    sigma_e = np.asarray(sigma_e, dtype=float)
    if np.ndim(sigma_e) == 0:
        sigma_e = float(sigma_e) * np.eye(k)

    cross = sigma @ a_mat.T
    inner = a_mat @ cross + sigma_e
    inner = 0.5 * (inner + inner.T)
    try:
        gain = spd_solve(inner, cross.T).T          # Sigma A^T inner^{-1}
    except IllConditioned as exc:
        raise SingularInnovation(str(exc)) from exc
    y = np.asarray(y, dtype=float)
    mu_t = mu + gain @ (y - a_mat @ mu)
    sigma_t = sigma - gain @ cross.T
    return mu_t, 0.5 * (sigma_t + sigma_t.T)


def condition_by_kriging(x, sigma_cols, constraint: HardConstraint):
    """Correct an unconstrained sample so the selected coordinates hit b exactly.

    ``sigma_cols`` holds Sigma A^T, the covariance columns at the constrained
    coordinates; the constraint Gram A Sigma A^T is its selected row block.
    Supports batched samples in the leading axes of ``x``.
    """
    x = np.asarray(x, dtype=float)
    if constraint.size == 0:
        return x.copy()
    sel = constraint.selector
    gram = sigma_cols[sel, :]
    gram = 0.5 * (gram + gram.T)
    resid = x[..., sel] - constraint.values
    try:
        weights = spd_solve(gram, resid.reshape(-1, sel.size).T)
    except IllConditioned as exc:
        raise SingularConstraintGram(str(exc)) from exc
    corr = (sigma_cols @ weights).T.reshape(x.shape)
    out = x - corr
    out[..., sel] = constraint.values
    return out


def krige(x, eig_cov, index, weights, values):
    """Correct a stationary draw so the entries ``x[index]`` hit ``values`` exactly.

    ``x`` is a draw on a column or a lattice grid and ``eig_cov`` the
    half-spectrum eigenvalue grid (the leading ``n//2 + 1`` rows of ``fftn``
    of the base) of its circulant or BCCB covariance Sigma.  ``weights``
    solve the Gram of Sigma at ``index`` for the residual
    ``x[index] - values``; a common scale of Sigma cancels.  The correction
    Sigma A^T weights is Sigma applied to the weights embedded on the
    lattice, so it costs one real FFT pair (Rue & Held 2005, section 2.3.3).
    """
    out = np.array(x, dtype=float)
    if np.shape(eig_cov)[0] != out.shape[0] // 2 + 1:
        raise DimensionMismatch("Kriging needs the half-spectrum eigenvalues")
    if np.size(weights) == 0:
        return out
    embed = np.zeros_like(out)
    embed[index] = weights
    axes = tuple(range(out.ndim))[::-1]
    out -= np.fft.irfftn(eig_cov * np.fft.rfftn(embed, axes=axes),
                         s=out.shape[::-1], axes=axes)
    out[index] = values
    return out


def constrained_logdensity(x_star, mu_tilde, sigma_tilde, free_selector):
    """Log density of a hard-constrained Gaussian, via its free-coordinate marginal.

    Equals the pseudo-determinant/pseudo-inverse form of the singular density
    evaluated at the full vector.
    """
    x_star = np.asarray(x_star, dtype=float)
    mu_tilde = np.asarray(mu_tilde, dtype=float)
    free = np.asarray(free_selector, dtype=int)
    n = x_star.size
    fixed = np.setdiff1d(np.arange(n), free)
    if fixed.size:
        gap = np.abs(x_star[fixed] - mu_tilde[fixed]).max()
        if gap > 1e-8:
            raise ConstraintViolated(f"constrained coordinate off by {gap:g}")
    if free.size == 0:
        return 0.0
    dev = x_star[free] - mu_tilde[free]
    cov = np.asarray(sigma_tilde, dtype=float)[np.ix_(free, free)]
    factor = spd_factor(cov)
    logdet = 2.0 * np.log(np.diag(factor[0])).sum()
    quad = dev @ scipy.linalg.cho_solve(factor, dev)
    return -0.5 * (free.size * np.log(2.0 * np.pi) + logdet + quad)


class RngStreams:
    """Seeded counter-based generators, one independent stream per parameter block.

    Philox streams derived from a single seed make Gibbs and HMC runs
    bit-reproducible; independent chains should use different seeds or
    ``derive``d child seeds.
    """

    BLOCKS = (
        "blur", "image", "data", "sigma_c", "sigma_w", "zeta",
        "momentum", "accept", "mix", "init", "sim",
    )

    def __init__(self, seed):
        self.seed = int(seed)
        children = np.random.SeedSequence(self.seed).spawn(len(self.BLOCKS))
        self._gens = {
            name: np.random.Generator(np.random.Philox(child))
            for name, child in zip(self.BLOCKS, children)
        }

    def __getattr__(self, name):
        try:
            return self._gens[name]
        except KeyError:
            raise AttributeError(name) from None

    @staticmethod
    def derive(seed, index):
        """Child seed for worker ``index``, independent of all other children."""
        child = np.random.SeedSequence(int(seed), spawn_key=(int(index),))
        return int(child.generate_state(1, dtype=np.uint64)[0])
