"""Marginal HMC blur update.

Targets the blur conditional with the image analytically integrated out.
The potential combines the effective-blur prior with the marginal data
likelihood N(W mu_c~, W Sigma_c~ W^T + Sigma_d); log-determinant and
quadratic form are evaluated through the matrix-determinant lemma and a
Woodbury rewrite so that only diagonal eigenvalue grids and m x m blocks
ever appear.

A trajectory moves only the blur; ``MarginalPlan`` holds what the data and
the variances alone determine, once per trajectory.  ``marginal_workspace``
builds what ``grad_potential`` reads at one blur value and ``potential``
adds the value to it, which a trajectory needs only at its two ends.  The
blur enters through its column eigenvalues, omega times the impulse
eigenvalues of the support, and the transform of the mean image it blurs
is the same product with a model constant, so no FFT of w* or of the prior
mean is taken per evaluation.

Every grid is a half spectrum along the vertical axis (``fourier`` module
docstring).  Grid sums carry the row weights: the potential's as a dot
with ``HalfSpectrum.weight_grid``, the gradient's folded into the weighted
impulse eigenvalues that contract them.  The Schur block and its gradient
read and write the lattice only on the constrained columns and on their
cyclic differences, so each of their 2-D transforms is one real FFT along
the rows of those columns times a small DFT matrix of the image prior.
Conjugation maps row l to row -l, never within the columns, so those small
DFTs act on the columns of the half grid as they did on the full one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import IndefiniteS, NonFiniteTrajectory, StaleWorkspace
from .fourier import irdft2, rdft2
from .model import ModelState, SbdModel

DIVERGENCE_THRESHOLD = 1000.0


@dataclass
class HmcConfig:
    """Leapfrog steps, step size, and the adaptation target."""

    steps: int
    step_size: float
    target_accept: float = 0.65
    divergence_threshold: float = DIVERGENCE_THRESHOLD

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("leapfrog trajectory needs at least one step")
        if not (self.step_size > 0 and np.isfinite(self.step_size)):
            raise ValueError("step size must be positive and finite")
        if not 0 < self.target_accept < 1:
            raise ValueError("target acceptance must lie in (0, 1)")


@dataclass
class MarginalPlan:
    """The part of the marginal potential that the blur does not move.

    With P = sigma_c^2 theta and N = sigma_d^2 theta_d the eigen grid of the
    marginal covariance is lam_a = P |lam_w0|^2 + N, all on the half grid.
    ``logy_eig`` (P^2 N / n_v) gives the gradient of log|Y|; ``mc`` is
    sigma_c^2 R_c on the pixels and ``chol_mc`` its lower factor.
    """

    sigma_c2: float
    prior_eig: np.ndarray
    noise_eig: np.ndarray
    dhat: np.ndarray
    # m > 0 only:
    logy_eig: np.ndarray | None = None
    mc: np.ndarray | None = None
    chol_mc: np.ndarray | None = None
    logdet_mc: float = 0.0

    @classmethod
    def build(cls, state: ModelState, model: SbdModel, dhat=None):
        """Plan for ``state``; ``dhat`` is the unitary half spectrum of
        ``state.d`` when the caller already has it."""
        img, rows = model.image, model.spectrum.rows
        if dhat is None:
            dhat = rdft2(state.d)
        sigma_c2 = state.sigma_c2
        plan = cls(sigma_c2, sigma_c2 * img.theta[:rows],
                   state.sigma_d2 * model.noise.theta[:rows], dhat)
        if img.m > 0:
            # with the 1/n_h of ``diff_dft``, the 1/n of the trace's inverse DFT
            plan.logy_eig = plan.prior_eig**2 * plan.noise_eig / model.lattice.n_v
            plan.mc = sigma_c2 * img.pixel_block
            plan.chol_mc = np.sqrt(sigma_c2) * img.pixel_chol[0]
            plan.logdet_mc = 2.0 * float(np.log(np.diag(plan.chol_mc)).sum())
        return plan


@dataclass
class MarginalWorkspace:
    """What the gradient, and the value, read at one blur value."""

    omega: np.ndarray
    plan: MarginalPlan
    lam_w0: np.ndarray           # half column eigenvalues of the convolution
    lam_a: np.ndarray            # half eigen grid of W Sigma_c W^T + Sigma_d
    inv_a: np.ndarray            # 1 / lam_a
    prior_a: np.ndarray          # P / lam_a, so lam_b = lam_w0 prior_a
    dbar_hat: np.ndarray         # unitary half spectrum of dbar = d - W mu_c~
    r_inv_omega: np.ndarray      # R_omega^{-1} omega
    # m > 0 only:
    chol_s: np.ndarray | None = None
    s_inv_tril: np.ndarray | None = None   # S^{-1} on and below the diagonal
    q: np.ndarray | None = None
    s_inv_q: np.ndarray | None = None

    @property
    def dbar(self):
        # the lattice has an even column order
        return irdft2(self.dbar_hat, 2 * (self.dbar_hat.shape[0] - 1))

    @property
    def chol_mc(self):
        return self.plan.chol_mc

    @property
    def s_inv(self):
        return self.s_inv_tril + np.tril(self.s_inv_tril, -1).T


def marginal_workspace(omega, state: ModelState, model: SbdModel,
                       plan: MarginalPlan) -> MarginalWorkspace:
    """The blur-dependent part of the potential; ``omega`` is kept, not copied.

    This takes the half column eigenvalues lam_w0 = omega @ (impulse eigs),
    the grid lam_a and dbar_hat = dhat - lam_w0 * rdft2(mu_c~); with a
    constraint mask also the Schur block S = M_c - A_c Z A_c^T, with Z read
    at the pixel offsets through one real column FFT over the offset
    columns J, its factor and inverse, and q = A_c B^T dbar through one
    over the constrained columns.
    """
    img, n_v = model.image, model.lattice.n_v
    lam_w0 = omega @ model.blur.impulse_eigs
    abs_w2 = (lam_w0.real**2 + lam_w0.imag**2)[:, None]
    lam_a = plan.prior_eig * abs_w2 + plan.noise_eig
    inv_a = 1.0 / lam_a
    prior_a = plan.prior_eig * inv_a
    # the column convolution commutes with the DFT along the rows
    dbar_hat = plan.dhat - lam_w0[:, None] * img.mu_hat
    ws = MarginalWorkspace(omega, plan, lam_w0, lam_a, inv_a, prior_a, dbar_hat,
                           model.blur.solve(omega))
    if img.m == 0:
        return ws

    # Z = ifft2(P^2 |lam_w0|^2 / lam_a) is real and even in the columns,
    # so the small DFT over J serves as the inverse one.  A factor of the
    # row alone, here and below, commutes with the small DFTs and scales
    # their output.  dpotrf reads only the lower triangle of S.
    z_cols = np.fft.irfft(abs_w2 * ((plan.prior_eig * prior_a) @ img.diff_dft.T),
                          n_v, axis=0)
    chol_s, info = lapack.dpotrf(plan.mc - np.take(z_cols, img.offset_slots),
                                 lower=1, clean=1)
    if info != 0:
        raise IndefiniteS("Schur block of the collapsed covariance "
                          "not positive definite")
    # q = A_c idft2(conj(lam_b) dbar_hat) on the constrained columns
    bt_cols = np.fft.irfft(np.conj(lam_w0)[:, None]
                           * ((prior_a * dbar_hat) @ img.col_idft.T), n_v, axis=0)
    q = np.take(bt_cols, img.pixel_flat)
    s_inv_q = lapack.dpotrs(chol_s, q, lower=1)[0]
    # dpotri fills the lower triangle; the upper one keeps chol_s's zeros
    s_inv, info = lapack.dpotri(chol_s, lower=1)
    if info != 0:
        raise IndefiniteS("Schur block of the collapsed covariance is singular")
    ws.chol_s, ws.s_inv_tril, ws.q, ws.s_inv_q = chol_s, s_inv, q, s_inv_q
    return ws


def potential(omega, state: ModelState, model: SbdModel, plan: MarginalPlan = None):
    """U(omega) = -log p(omega | sw2) - log p(d | omega, variances).

    Returns the value together with the workspace the gradient consumes.
    ``plan`` is ``MarginalPlan.build(state, model)``, built here when not
    given.
    """
    omega = np.array(omega, dtype=float)
    if plan is None:
        plan = MarginalPlan.build(state, model)
    ws = marginal_workspace(omega, state, model, plan)
    weight_grid, dbar_hat = model.spectrum.weight_grid, ws.dbar_hat
    quad = float(np.vdot(weight_grid, (dbar_hat.real**2 + dbar_hat.imag**2) * ws.inv_a))
    logdet = float(np.vdot(weight_grid, np.log(ws.lam_a)))
    if model.image.m > 0:
        # log|Y| with Y = I - L^T A_c Z A_c^T L collapses to log|S| - log|M_c|
        logdet += 2.0 * np.log(np.diag(ws.chol_s)).sum() - plan.logdet_mc
        quad += float(ws.q @ ws.s_inv_q)

    k, n = omega.size, model.lattice.n
    u_prior = 0.5 * (k * np.log(2 * np.pi) + k * np.log(state.sigma_w2)
                     + model.blur.logdet_r_omega
                     + float(omega @ ws.r_inv_omega) / state.sigma_w2)
    return u_prior + 0.5 * (n * np.log(2 * np.pi) + logdet + quad), ws


def grad_potential(omega, ws: MarginalWorkspace, state: ModelState, model: SbdModel):
    """Gradient of the marginal potential with respect to the effective blur.

    Every term but one is a product of half eigenvalue grids reduced over
    the columns to one vector x, even in the row, so the k x (n_v/2 + 1)
    weighted impulse eigenvalues of dW0/d omega contract it once, and the
    cost does not grow with k beyond that product.  With a constraint mask,
    S^{-1} scattered onto the offset columns J meets the derivative of the
    Schur block through one real column FFT (Parseval), S^{-1} q enters
    vhat through one over the constrained columns, and the subtracted part
    R* of the prior covariance enters as an m x k gather of R_c v on the
    constrained columns at the pixels shifted by the support offsets.
    """
    omega = np.asarray(omega, dtype=float)
    if ws.omega is not omega and not np.array_equal(ws.omega, omega):
        raise StaleWorkspace("workspace was built for a different blur value")
    img, plan, inv_a = model.image, ws.plan, ws.inv_a
    n_v = model.lattice.n_v

    # vhat: unitary half spectrum of v = Sigma_{d|omega}^{-1} dbar
    vhat = ws.dbar_hat * inv_a
    if img.m > 0:
        embed = np.zeros((n_v, img.col_dft.shape[0]))
        np.put(embed, img.pixel_flat, ws.s_inv_q)
        vhat += ws.prior_a * ((ws.lam_w0[:, None] * np.fft.rfft(embed, axis=0))
                              @ img.col_dft)

    # log|A| term P / lam_a and the quadratic form's BCCB part -P |vhat|^2,
    # both times d|lam_w0|^2 / d omega_i = 2 Re(impulse_i conj(lam_w0));
    # P vhat is also sigma_c2 times the spectrum of z = R_c v below
    pz = plan.prior_eig * vhat
    grid = ws.prior_a - (np.conj(vhat) * pz).real
    grad, mean = ws.r_inv_omega / state.sigma_w2, 0.0

    if img.m > 0:
        # log|Y| via -tr(S^{-1} A_c dZ_i A_c^T), with dZ_i the inverse DFT2 of
        # a_i P^2 N / lam_a^2: dZ_i is real and even, so the lower triangle of
        # S^{-1}, weighted, stands for all of it
        s_grid = np.bincount(img.offset_slots.ravel(),
                             weights=(ws.s_inv_tril * img.tril_weight).ravel(),
                             minlength=n_v * img.diff_dft.shape[0])
        s_hat = (np.fft.rfft(s_grid.reshape(n_v, -1), axis=0) @ img.diff_dft).real
        grid -= plan.logy_eig * inv_a**2 * s_hat

        # + 2 sigma_c2 v^T dW0_i R* W0^T v with R* = R_c A^T M^{-1} A R_c and M
        # the pixel block of R_c: with z = R_c v and u = M^{-1} A R_c W0^T v
        # it is 2 sigma_c2 sum_p u_p z[r_p + s_i, c_p], an m x k gather, as
        # dW0_i^T shifts by s_i and commutes with R_c
        # (z and u each come out sigma_c2 times too large)
        z_c = pz @ img.col_idft.T
        z_cols, y_cols = np.fft.irfft(
            np.array([z_c, np.conj(ws.lam_w0)[:, None] * z_c]), n_v, axis=1)
        u = lapack.dpotrs(img.pixel_chol[0], np.take(y_cols, img.pixel_flat),
                          lower=1)[0]
        grad = grad + (u @ np.take(z_cols, img.gather_flat)) / plan.sigma_c2

        # mean dependence: dbar = d - B w*, contributing -2 B^T v; by
        # Parseval along the columns (B^T v)[support_i] is the full-grid sum
        # of conj(impulse_i) conj(mu_hat) vhat, real, so the weighted half sum
        mean = np.sum(img.mu_hat_conj * vhat, axis=1)

    x = ws.lam_w0 * grid.sum(axis=1) - mean
    return grad + (model.blur.impulse_eigs_w @ np.conj(x)).real


def leapfrog(omega, p, eps, steps, grad_u, m_inv):
    """Half-kick / drift / half-kick with kinetic energy p^T M^{-1} p / 2."""
    omega = np.asarray(omega, dtype=float).copy()
    p = np.asarray(p, dtype=float).copy()
    p -= 0.5 * eps * grad_u(omega)
    for step in range(steps):
        omega += eps * (m_inv @ p)
        g = grad_u(omega)
        p -= eps * g if step < steps - 1 else 0.5 * eps * g
        if not (np.isfinite(omega).all() and np.isfinite(p).all()):
            raise NonFiniteTrajectory("leapfrog state left the finite range")
    return omega, p


@dataclass
class HmcResult:
    omega: np.ndarray
    accepted: bool
    delta_h: float
    step_size: float
    divergent: bool = False


def hmc_update(state: ModelState, model: SbdModel, cfg: HmcConfig, streams,
               dhat=None) -> HmcResult:
    """One Metropolis-adjusted trajectory; on reject the blur stays put.

    The momentum is preconditioned with the inverse prior covariance
    M = (sigma_w^2 R_omega)^{-1}, refreshed at the current sigma_w^2.  One
    ``MarginalPlan`` serves the whole trajectory; ``dhat``, the unitary half
    spectrum of ``state.d``, saves it a transform when the caller has one.
    The gradient is taken at steps + 1 positions and the value only at the
    two ends.  A start point or trajectory the workspace cannot be built
    at, interior positions included, returns a divergent result.
    """
    omega0 = state.omega.copy()
    m_inv = state.sigma_w2 * model.blur.r_omega

    z = streams.momentum.standard_normal(omega0.size)
    # p0 = L^{-T} z / sigma_w, with LAPACK directly as in ``BlurPrior.solve``;
    # L^T, the transpose view of L, is upper triangular and Fortran-ordered
    p0 = lapack.dtrtrs(model.blur.chol_r_omega.T, z)[0] / np.sqrt(state.sigma_w2)

    def kinetic(p):
        return 0.5 * state.sigma_w2 * float(p @ (model.blur.r_omega @ p))

    plan = MarginalPlan.build(state, model, dhat)
    # leapfrog visits the start, steps - 1 interior positions and the end
    position = iter(range(cfg.steps + 1))
    ends = {}

    def grad_u(w):
        i = next(position)
        if i == 0:
            ws = ends["ws0"]
        elif i < cfg.steps:
            ws = marginal_workspace(w, state, model, plan)
        else:
            ends["u1"], ws = potential(w, state, model, plan)
        return grad_potential(w, ws, state, model)

    try:
        u0, ends["ws0"] = potential(omega0, state, model, plan)
        h0 = u0 + kinetic(p0)
        omega1, p1 = leapfrog(omega0, p0, cfg.step_size, cfg.steps, grad_u, m_inv)
        delta_h = ends["u1"] + kinetic(p1) - h0
    except (NonFiniteTrajectory, IndefiniteS):
        return HmcResult(omega0, False, np.inf, cfg.step_size, divergent=True)

    if not np.isfinite(delta_h) or abs(delta_h) > cfg.divergence_threshold:
        return HmcResult(omega0, False, delta_h, cfg.step_size, divergent=True)
    accept = np.log(streams.accept.random()) < -delta_h
    return HmcResult(omega1 if accept else omega0, bool(accept), float(delta_h),
                     cfg.step_size)


class DualAveraging:
    """Step-size adaptation toward a target acceptance rate during burn-in.

    Standard dual averaging on log(step size); after ``finalize`` the
    averaged value is frozen.
    """

    def __init__(self, eps0, target=0.65, gamma=0.05, t0=10.0, kappa=0.75):
        self.mu = np.log(10.0 * eps0)
        self.target = target
        self.gamma = gamma
        self.t0 = t0
        self.kappa = kappa
        self.h_bar = 0.0
        self.log_eps = np.log(eps0)
        self.log_eps_bar = np.log(eps0)
        self.count = 0

    def update(self, accept_prob):
        self.count += 1
        frac = 1.0 / (self.count + self.t0)
        self.h_bar = (1 - frac) * self.h_bar + frac * (self.target - accept_prob)
        self.log_eps = self.mu - np.sqrt(self.count) / self.gamma * self.h_bar
        eta = self.count ** (-self.kappa)
        self.log_eps_bar = eta * self.log_eps + (1 - eta) * self.log_eps_bar
        return float(np.exp(self.log_eps))

    @property
    def adapted(self):
        return float(np.exp(self.log_eps_bar))
