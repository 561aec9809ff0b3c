"""Marginal HMC blur update.

Targets the blur conditional with the image analytically integrated out.
The potential combines the effective-blur prior with the marginal data
likelihood N(W mu_c~, W Sigma_c~ W^T + Sigma_d); log-determinant and
quadratic form are evaluated through the matrix-determinant lemma and a
Woodbury rewrite so that only diagonal eigenvalue grids and m x m blocks
ever appear.

A trajectory moves only the blur; the data and the variances stay fixed.
``MarginalPlan`` holds what they alone determine: the eigen grids
sigma_c^2 theta and sigma_d^2 theta_d, the unitary half spectrum of d and
the scaled pixel block of R_c.  ``hmc_update`` builds it once per
trajectory, and ``potential`` and ``grad_potential`` do only the work the
blur moves.  The blur enters through its column eigenvalues, omega times
the impulse eigenvalues of the support, and the transform of the mean image
it blurs is the same product with a model constant, so no FFT of w* or of
the prior mean is taken per evaluation.

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
import scipy.linalg
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
    ``prior_eig2`` (P^2) gives the Schur block and ``logy_eig`` (P^2 N) the
    gradient of log|Y|; ``mc`` is sigma_c^2 R_c on the pixels and
    ``chol_mc`` its lower factor.
    """

    sigma_c2: float
    prior_eig: np.ndarray
    noise_eig: np.ndarray
    dhat: np.ndarray
    # m > 0 only:
    prior_eig2: np.ndarray | None = None
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
            plan.prior_eig2 = plan.prior_eig**2
            plan.logy_eig = plan.prior_eig2 * plan.noise_eig
            plan.mc = sigma_c2 * img.pixel_block
            plan.chol_mc = np.sqrt(sigma_c2) * img.pixel_chol[0]
            plan.logdet_mc = 2.0 * float(np.log(np.diag(plan.chol_mc)).sum())
        return plan


@dataclass
class MarginalWorkspace:
    """Quantities cached by one potential evaluation and reused by its gradient."""

    omega: np.ndarray
    plan: MarginalPlan
    lam_w0: np.ndarray           # half column eigenvalues of the convolution
    lam_a: np.ndarray            # half eigen grid of W Sigma_c W^T + Sigma_d
    dbar_hat: np.ndarray         # unitary half spectrum of dbar = d - W mu_c~
    r_inv_omega: np.ndarray      # R_omega^{-1} omega
    # m > 0 only:
    lam_b: np.ndarray | None = None
    chol_s: np.ndarray | None = None
    s_inv: np.ndarray | None = None
    q: np.ndarray | None = None
    s_inv_q: np.ndarray | None = None

    @property
    def dbar(self):
        # the lattice has an even column order
        return irdft2(self.dbar_hat, 2 * (self.dbar_hat.shape[0] - 1))

    @property
    def chol_mc(self):
        return self.plan.chol_mc


def potential(omega, state: ModelState, model: SbdModel, plan: MarginalPlan = None):
    """U(omega) = -log p(omega | sw2) - log p(d | omega, variances).

    Returns the value together with the workspace the gradient consumes.
    ``plan`` is ``MarginalPlan.build(state, model)``, built here when not
    given.  Per call this takes the half column eigenvalues lam_w0 = omega @
    (impulse eigs), the grid lam_a and dbar_hat = dhat - lam_w0 * rdft2(mu_c~);
    with a constraint mask also the Schur block S = M_c - A_c Z A_c^T, with
    Z read at the pixel offsets through one real column FFT over the offset
    columns J, and q = A_c B^T dbar through one over the constrained columns.
    """
    omega = np.asarray(omega, dtype=float)
    if plan is None:
        plan = MarginalPlan.build(state, model)
    img, weight_grid = model.image, model.spectrum.weight_grid
    lat = model.lattice
    k, n, n_v = omega.size, lat.n, lat.n_v

    lam_w0 = omega @ model.blur.impulse_eigs
    abs_w2 = (lam_w0.real**2 + lam_w0.imag**2)[:, None]
    lam_a = plan.prior_eig * abs_w2 + plan.noise_eig
    # the column convolution commutes with the DFT along the rows
    dbar_hat = plan.dhat - lam_w0[:, None] * img.mu_hat
    quad = float(np.vdot(weight_grid, (dbar_hat.real**2 + dbar_hat.imag**2) / lam_a))
    logdet = float(np.vdot(weight_grid, np.log(lam_a)))
    r_inv_omega = model.blur.solve(omega)

    ws = MarginalWorkspace(omega.copy(), plan, lam_w0, lam_a, dbar_hat, r_inv_omega)

    if img.m > 0:
        # Z = ifft2(P^2 |lam_w0|^2 / lam_a) is real and even in the columns,
        # so the small DFT over J serves as the inverse one
        lam_z = plan.prior_eig2 * abs_w2 / lam_a
        z_cols = np.fft.irfft(lam_z @ img.diff_dft.T, n_v, axis=0)
        zc = z_cols.ravel()[img.offset_slots] / lat.n_h
        s_block = plan.mc - zc
        s_block = 0.5 * (s_block + s_block.T)
        chol_s, info = lapack.dpotrf(s_block, lower=1, clean=1)
        if info != 0:
            raise IndefiniteS("Schur block of the collapsed covariance "
                              "not positive definite")
        # log|Y| with Y = I - L^T A_c Z A_c^T L collapses to log|S| - log|M_c|
        logdet += 2.0 * np.log(np.diag(chol_s)).sum() - plan.logdet_mc

        # q = A_c idft2(conj(lam_b) dbar_hat) on the constrained columns
        lam_b = plan.prior_eig * lam_w0[:, None] / lam_a
        bt_cols = np.fft.irfft((np.conj(lam_b) * dbar_hat) @ img.col_idft.T, n_v, axis=0)
        q = bt_cols[img.pixel_slots] * (n_v / np.sqrt(n))
        s_inv_q = lapack.dpotrs(chol_s, q, lower=1)[0]
        s_inv, info = lapack.dpotri(chol_s, lower=1)
        if info != 0:
            raise IndefiniteS("Schur block of the collapsed covariance is singular")
        quad += float(q @ s_inv_q)

        ws.lam_b = lam_b
        ws.chol_s = chol_s
        # dpotri fills the lower triangle; the upper one holds chol_s's zeros
        full = s_inv + s_inv.T
        np.fill_diagonal(full, np.diagonal(s_inv))
        ws.s_inv = full
        ws.q = q
        ws.s_inv_q = s_inv_q

    quad_prior = float(omega @ r_inv_omega)
    u_prior = 0.5 * (k * np.log(2 * np.pi) + k * np.log(state.sigma_w2)
                     + model.blur.logdet_r_omega + quad_prior / state.sigma_w2)
    u_lik = 0.5 * (n * np.log(2 * np.pi) + logdet + quad)
    return u_prior + u_lik, ws


def grad_potential(omega, ws: MarginalWorkspace, state: ModelState, model: SbdModel):
    """Gradient of the marginal potential with respect to the effective blur.

    Every term is a product of half eigenvalue grids reduced over the
    columns and contracted with the k x (n_v/2 + 1) weighted impulse
    eigenvalues of dW0/d omega, so the cost does not grow with k beyond that
    one product.  The workspace carries the potential's plan.  With a
    constraint mask, S^{-1} scattered onto the offset columns J meets the
    derivative of the Schur block through one real column FFT (Parseval),
    S^{-1} q enters vhat through one over the constrained columns, and the
    subtracted part R* of the prior covariance enters the quadratic form as
    an m x k gather of R_c v on the constrained columns at the pixels
    shifted by the support offsets.  The mean term B^T v is needed only on
    the support, so it is the same weighted contraction.
    """
    omega = np.asarray(omega, dtype=float)
    if ws.omega.shape != omega.shape or not np.array_equal(ws.omega, omega):
        raise StaleWorkspace("workspace was built for a different blur value")
    lat = model.lattice
    img, blur = model.image, model.blur
    plan = ws.plan
    n_v, n = lat.n_v, lat.n

    lam_w0 = ws.lam_w0
    lam_a = ws.lam_a
    # a_i[l] = d|lam_w0[l]|^2 / d omega_i, times the row weight: every grid
    # below is reduced over the columns to a vector even in l
    a_all = 2.0 * (blur.impulse_eigs_w * np.conj(lam_w0)[None, :]).real

    grad = ws.r_inv_omega / state.sigma_w2

    # log|A| term: sum over the grid of lam_a_dot / lam_a
    grad_logdet = a_all @ np.sum(plan.prior_eig / lam_a, axis=1)

    # vhat: unitary half spectrum of v = Sigma_{d|omega}^{-1} dbar
    vhat = ws.dbar_hat / lam_a
    if img.m > 0:
        embed = np.zeros((n_v, img.col_dft.shape[0]))
        embed[img.pixel_slots] = ws.s_inv_q
        vhat = vhat + ws.lam_b * ((np.fft.rfft(embed, axis=0) @ img.col_dft)
                                  / np.sqrt(n))

    # quadratic-form term, BCCB part: -vhat^H (sigma_c2 Lam_Rh (x) Lam_Di) vhat
    grad_quad = -(a_all @ np.sum((vhat.real**2 + vhat.imag**2) * plan.prior_eig,
                                 axis=1))

    if img.m > 0:
        # log|Y| via -tr(S^{-1} A_c dZ_i A_c^T), with dZ_i the inverse DFT2 of
        # a_i P^2 N / lam_a^2
        s_grid = np.bincount(img.offset_slots.ravel(), weights=ws.s_inv.ravel(),
                             minlength=n_v * img.diff_dft.shape[0])
        s_hat = (np.fft.rfft(s_grid.reshape(n_v, -1), axis=0) @ img.diff_dft).real
        grad_logdet -= (a_all @ np.sum(plan.logy_eig / lam_a**2 * s_hat, axis=1)) / n

        # + 2 sigma_c2 v^T dW0_i R* W0^T v with R* = R_c A^T M^{-1} A R_c and M
        # the pixel block of R_c: with z = R_c v and u = M^{-1} A R_c W0^T v
        # it is 2 sigma_c2 sum_p u_p z[r_p + s_i, c_p], an m x k gather, as
        # dW0_i^T shifts by s_i and commutes with R_c
        z_hat = img.theta[:model.spectrum.rows] * vhat
        z_cols, y_cols = np.fft.irfft(
            np.stack([z_hat, np.conj(lam_w0)[:, None] * z_hat]) @ img.col_idft.T,
            n_v, axis=1) * (n_v / np.sqrt(n))
        u = lapack.dpotrs(img.pixel_chol[0], y_cols[img.pixel_slots], lower=1)[0]
        rows, slots = img.pixel_slots
        shifts = lat.blur_support - n_v // 2
        grad_quad += 2.0 * plan.sigma_c2 * (
            u @ z_cols[(rows[:, None] + shifts) % n_v, slots[:, None]])

        # mean dependence: dbar = d - B w*, contributing -2 B^T v; by
        # Parseval along the columns (B^T v)[support_i] is the full-grid sum
        # of conj(impulse_i) conj(mu_hat) vhat, real, so the weighted half sum
        btv = blur.impulse_eigs_w @ np.conj(np.sum(img.mu_hat_conj * vhat, axis=1))
        grad_quad -= 2.0 * btv.real

    return grad + 0.5 * (grad_logdet + grad_quad)


def leapfrog(omega, p, eps, steps, grad_u, m_inv):
    """Half-kick / drift / half-kick with kinetic energy p^T M^{-1} p / 2."""
    omega = np.asarray(omega, dtype=float).copy()
    p = np.asarray(p, dtype=float).copy()
    p -= 0.5 * eps * grad_u(omega)
    for step in range(steps):
        omega += eps * (m_inv @ p)
        g = grad_u(omega)
        p -= eps * g if step < steps - 1 else 0.5 * eps * g
        if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(p))):
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
    spectrum of ``state.d``, saves it a transform when the caller has one.  The
    potential is evaluated once per position, steps + 1 times in all: the
    start point's workspace serves the first half-kick.  A start point or
    trajectory the potential cannot evaluate returns a divergent result.
    """
    omega0 = state.omega.copy()
    sw = np.sqrt(state.sigma_w2)
    chol_r = model.blur.chol_r_omega
    m_inv = state.sigma_w2 * model.blur.r_omega

    z = streams.momentum.standard_normal(omega0.size)
    p0 = scipy.linalg.solve_triangular(chol_r, z, lower=True, trans="T") / sw

    def kinetic(p):
        return 0.5 * state.sigma_w2 * float(p @ (model.blur.r_omega @ p))

    plan = MarginalPlan.build(state, model, dhat)
    last = {}

    def grad_u(w):
        if not np.array_equal(last["ws"].omega, w):
            last["u"], last["ws"] = potential(w, state, model, plan)
        return grad_potential(w, last["ws"], state, model)

    try:
        last["u"], last["ws"] = potential(omega0, state, model, plan)
        h0 = last["u"] + kinetic(p0)
        omega1, p1 = leapfrog(omega0, p0, cfg.step_size, cfg.steps, grad_u, m_inv)
        # the last gradient was taken at omega1
        delta_h = last["u"] + kinetic(p1) - h0
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
