"""Marginal HMC blur update.

Targets the blur conditional with the image analytically integrated out.
The potential combines the effective-blur prior with the marginal data
likelihood N(W mu_c~, W Sigma_c~ W^T + Sigma_d); log-determinant and
quadratic form are evaluated through the matrix-determinant lemma and a
Woodbury rewrite so that only diagonal eigenvalue grids and m x m blocks
ever appear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    IndefiniteS,
    MaskNotKronecker,
    NonFiniteTrajectory,
    StaleWorkspace,
)
from .fourier import convolve_columns, kernel_eigs
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
class MarginalWorkspace:
    """Quantities cached by one potential evaluation and reused by its gradient."""

    omega: np.ndarray
    lam_w0: np.ndarray           # action eigenvalues of the column convolution
    lam_a: np.ndarray            # eigen grid of W Sigma_c W^T + Sigma_d
    dbar: np.ndarray
    dbar_hat: np.ndarray         # unitary DFT2 of dbar
    # m > 0 only:
    chol_mc: np.ndarray | None = None
    chol_s: np.ndarray | None = None
    s_inv: np.ndarray | None = None
    q: np.ndarray | None = None
    s_inv_q: np.ndarray | None = None


def potential(omega, state: ModelState, model: SbdModel):
    """U(omega) = -log p(omega | sw2) - log p(d | omega, variances).

    Returns the value together with the workspace the gradient consumes.
    """
    omega = np.asarray(omega, dtype=float)
    lat = model.lattice
    img = model.image
    if img.m > 0 and not img.is_kron:
        raise MaskNotKronecker(
            "marginal blur update needs a rows x columns image constraint mask"
        )
    k, n = omega.size, lat.n
    sigma_c2, sigma_w2, sigma_d2 = state.sigma_c2, state.sigma_w2, state.sigma_d2

    w_star = np.zeros(lat.n_v)
    w_star[lat.blur_support] = omega
    lam_w0 = kernel_eigs(w_star)
    abs_w2 = (lam_w0.real**2 + lam_w0.imag**2)[:, None]
    lam_a = sigma_c2 * abs_w2 * img.theta + sigma_d2 * model.noise.theta

    dbar = state.d - convolve_columns(w_star, img.mu_tilde)
    dbar_hat = np.fft.fft2(dbar, norm="ortho")
    quad = float(np.sum((dbar_hat.real**2 + dbar_hat.imag**2) / lam_a))
    logdet = float(np.sum(np.log(lam_a)))

    ws = MarginalWorkspace(omega.copy(), lam_w0, lam_a, dbar, dbar_hat)

    if img.m > 0:
        mc = sigma_c2 * img.base[img.pixel_offsets]
        chol_mc = np.sqrt(sigma_c2) * img.pixel_chol[0]

        lam_z = (sigma_c2**2) * img.theta**2 * abs_w2 / lam_a
        base_z = np.fft.ifft2(lam_z).real
        zc = base_z[img.pixel_offsets]
        s_block = mc - zc
        s_block = 0.5 * (s_block + s_block.T)
        try:
            chol_s = scipy.linalg.cholesky(s_block, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise IndefiniteS("Schur block of the collapsed covariance "
                              "not positive definite") from exc
        # log|Y| with Y = I - L^T A_c Z A_c^T L collapses to log|S| - log|M_c|
        logdet += 2.0 * (np.log(np.diag(chol_s)).sum()
                         - np.log(np.diag(chol_mc)).sum())

        lam_b = sigma_c2 * img.theta * lam_w0[:, None] / lam_a
        bt_dbar = np.fft.ifft2(np.conj(lam_b) * dbar_hat, norm="ortho").real
        q = bt_dbar[img.pixel_index]
        s_inv_q = scipy.linalg.cho_solve((chol_s, True), q)
        quad += float(q @ s_inv_q)

        ws.chol_mc = chol_mc
        ws.chol_s = chol_s
        ws.s_inv = scipy.linalg.cho_solve((chol_s, True), np.eye(img.m))
        ws.q = q
        ws.s_inv_q = s_inv_q

    quad_prior = float(omega @ model.blur.solve(omega))
    u_prior = 0.5 * (k * np.log(2 * np.pi) + k * np.log(sigma_w2)
                     + model.blur.logdet_r_omega + quad_prior / sigma_w2)
    u_lik = 0.5 * (n * np.log(2 * np.pi) + logdet + quad)
    return u_prior + u_lik, ws


def grad_potential(omega, ws: MarginalWorkspace, state: ModelState, model: SbdModel):
    """Gradient of the marginal potential with respect to the effective blur.

    Every term is a product of eigenvalue grids reduced over the columns and
    contracted with the k x n_v impulse eigenvalues of dW0/d omega, so the
    cost does not grow with k beyond that one product.  With a constraint
    mask, S^{-1} scattered onto the pixel-offset grid meets the derivative
    of the Schur block through one FFT (Parseval), and the subtracted
    Kronecker part of the quadratic form becomes a circular
    cross-correlation down the columns, read at the support shifts.
    """
    omega = np.asarray(omega, dtype=float)
    if ws.omega.shape != omega.shape or not np.array_equal(ws.omega, omega):
        raise StaleWorkspace("workspace was built for a different blur value")
    lat = model.lattice
    img = model.image
    sigma_c2 = state.sigma_c2

    lam_dot = model.blur_impulse_eigs()          # (k, n_v)
    lam_w0 = ws.lam_w0
    lam_a = ws.lam_a
    # a_i[l] = d|lam_w0[l]|^2 / d omega_i
    a_all = 2.0 * (lam_dot * np.conj(lam_w0)[None, :]).real

    grad = model.blur.solve(omega) / state.sigma_w2

    # log|A| term: sum over the grid of lam_a_dot / lam_a
    colagg = sigma_c2 * np.sum(img.theta / lam_a, axis=1)
    grad_logdet = a_all @ colagg

    # v = Sigma_{d|omega}^{-1} dbar and its transform
    vhat = ws.dbar_hat / lam_a
    if img.m > 0:
        lam_b = sigma_c2 * img.theta * lam_w0[:, None] / lam_a
        embed = np.zeros((lat.n_v, lat.n_h))
        embed[img.pixel_index] = ws.s_inv_q
        vhat = vhat + lam_b * np.fft.fft2(embed, norm="ortho")
    v = np.fft.ifft2(vhat, norm="ortho").real

    # quadratic-form term, BCCB part: -sigma_c2 * vhat^H (Lam_Rh (x) Lam_Di) vhat
    theta_cv = img.r_cv.eigs.real
    theta_ch = img.r_ch.eigs.real
    rowagg = np.sum((vhat.real**2 + vhat.imag**2) * theta_ch[None, :], axis=1)
    grad_quad = -sigma_c2 * (a_all @ (theta_cv * rowagg))

    if img.m > 0:
        # log|Y| via -tr(S^{-1} A_c dZ_i A_c^T), dZ_i = sigma_c2^2 ifft2(a_i g_grid)
        abs_w2 = (lam_w0.real**2 + lam_w0.imag**2)[:, None]
        g_grid = (img.theta**2 / lam_a
                  - sigma_c2 * img.theta**3 * abs_w2 / lam_a**2)
        s_grid = np.bincount(img.pixel_offsets_flat, weights=ws.s_inv.ravel(),
                             minlength=lat.n).reshape(lam_a.shape)
        s_hat = np.fft.fft2(s_grid).real
        grad_logdet -= sigma_c2**2 / lat.n * (a_all @ np.sum(g_grid * s_hat, axis=1))

        # + sigma_c2 v^T (R*_h (x) D*_i) v with D*_i = dW0_i R*_v W0^T
        # + W0 R*_v dW0_i^T: both halves are cross-correlations down the columns
        v_cols = np.fft.fft(v, axis=0)
        gtv = img.r_star_v.T @ np.fft.ifft(np.conj(lam_w0)[:, None] * v_cols,
                                           axis=0).real
        m_tilde = v @ img.r_star_h
        k_mat = gtv @ img.r_star_h
        cross = (np.conj(np.fft.fft(gtv, axis=0)) * np.fft.fft(m_tilde, axis=0)
                 + np.conj(np.fft.fft(k_mat, axis=0)) * v_cols)
        t12 = np.fft.ifft(np.sum(cross, axis=1)).real
        shifts = lat.blur_support - lat.n_v // 2
        grad_quad += sigma_c2 * t12[shifts % lat.n_v]

        # mean dependence: dbar = d - B w*, contributing -2 B^T v
        btv = np.fft.ifft(np.sum(np.conj(img.mu_conv_eigs) * v_cols, axis=1)).real
        grad_quad -= 2.0 * btv[lat.blur_support]

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


def hmc_update(state: ModelState, model: SbdModel, cfg: HmcConfig, streams) -> HmcResult:
    """One Metropolis-adjusted trajectory; on reject the blur stays put.

    The momentum is preconditioned with the inverse prior covariance
    M = (sigma_w^2 R_omega)^{-1}, refreshed at the current sigma_w^2.  The
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

    last = {}

    def grad_u(w):
        if not np.array_equal(last["ws"].omega, w):
            last["u"], last["ws"] = potential(w, state, model)
        return grad_potential(w, last["ws"], state, model)

    try:
        last["u"], last["ws"] = potential(omega0, state, model)
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
