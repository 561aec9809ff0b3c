"""Fourier-domain Gibbs sampler: six full-conditional updates per sweep.

The blur, image, and auxiliary-data conditionals are sampled unconstrained in
the Fourier domain and corrected onto their hard constraints by
``gauss.krige``, one FFT pair each; the three variance parameters have
conjugate inverse-gamma conditionals, which share one data sum of squares
per sweep.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NonPositiveScale
from .fourier import convolve_columns, kernel_eigs
from .gauss import FourierGaussian, krige, sample_fourier_gaussian, spd_solve
from .model import ModelState, SbdModel, embed_blur


class GibbsWorkspace:
    """Per-sweep caches keyed on the image; invalidated when c changes.

    Holds the per-column convolution eigenvalues of the current image and
    the eigenvalue vector of Gamma^T R_d^{-1} Gamma assembled from the sparse
    horizontal noise precision.
    """

    def __init__(self):
        self._c_ref = None
        self.gamma_eigs = None
        self.lam_gram = None

    def refresh(self, state: ModelState, model: SbdModel):
        # image updates replace the array rather than mutating it, so object
        # identity is a valid cache key
        if state.c is self._c_ref:
            return
        self.gamma_eigs = kernel_eigs(state.c)
        self.lam_gram = gamma_precision_eigs(self.gamma_eigs, model)
        self._c_ref = state.c

    def invalidate(self):
        self._c_ref = None


def gamma_precision_eigs(gamma_eigs, model: SbdModel):
    """Eigenvalues of Gamma^T R_d^{-1} Gamma via the sparse double sum.

    Only offsets with non-negligible horizontal precision entries contribute;
    the transpose of a real-base circulant conjugates its eigenvalues.
    """
    noise = model.noise
    acc = np.zeros(gamma_eigs.shape[0], dtype=complex)
    conj = np.conj(gamma_eigs)
    for off, tau in zip(noise.tau_offsets, noise.tau_values):
        rolled = gamma_eigs if off == 0 else np.roll(gamma_eigs, -off, axis=1)
        acc += tau * np.sum(conj * rolled, axis=1)
    return acc.real / noise.r_dv.eigs.real


def blur_fc_params(state: ModelState, model: SbdModel, ws: GibbsWorkspace = None):
    """Fourier-domain mean and covariance eigenvalues of the blur conditional."""
    if ws is None:
        ws = GibbsWorkspace()
    ws.refresh(state, model)
    sigma_d2 = state.sigma_d2
    theta_rw = model.blur.r_w.eigs.real

    eig_cov = 1.0 / (1.0 / (state.sigma_w2 * theta_rw) + ws.lam_gram / sigma_d2)

    dhat = np.fft.fft2(state.d, norm="ortho")
    y2 = dhat / (sigma_d2 * model.noise.theta)          # DFT2 of Sigma_d^{-1} d
    ycols = np.fft.ifft(y2, axis=1, norm="ortho")        # column DFTs
    bhat = np.sum(np.conj(ws.gamma_eigs) * ycols, axis=1)
    mean_hat = eig_cov * bhat
    return mean_hat, eig_cov


def sample_blur_fc(state: ModelState, model: SbdModel, rng, ws: GibbsWorkspace = None):
    """Draw w* from its full conditional; off-support entries land exactly at zero."""
    lat = model.lattice
    mean_hat, eig_cov = blur_fc_params(state, model, ws)
    w = sample_fourier_gaussian(FourierGaussian(mean_hat, eig_cov), rng)

    base = np.fft.ifft(eig_cov).real                     # base of Sigma_{w|d}
    free = lat.blur_free
    gram = base[(free[:, None] - free[None, :]) % lat.n_v]
    w_star = krige(w, eig_cov, free, spd_solve(gram, w[free]), 0.0)
    omega = w_star[lat.blur_support].copy()
    return embed_blur(omega, lat), omega


def image_fc_params(state: ModelState, model: SbdModel):
    """Fourier-domain mean grid and covariance eigen grid of the image conditional."""
    theta_w = kernel_eigs(state.w_star)[:, None]
    theta_rc = model.image.theta
    theta_rd = model.noise.theta
    prior_eig = state.sigma_c2 * theta_rc
    noise_eig = state.sigma_d2 * theta_rd
    denom = np.abs(theta_w) ** 2 * prior_eig + noise_eig

    dhat = np.fft.fft2(state.d, norm="ortho")
    mean_hat = prior_eig * np.conj(theta_w) * dhat / denom
    eig_cov = prior_eig * noise_eig / denom
    return mean_hat, eig_cov


def sample_image_fc(state: ModelState, model: SbdModel, rng):
    """Draw the extended image; exactly observed pixels land exactly at c_o."""
    img = model.image
    mean_hat, eig_cov = image_fc_params(state, model)
    c = sample_fourier_gaussian(FourierGaussian(mean_hat, eig_cov), rng)
    base = np.fft.ifft2(eig_cov).real                   # base of Sigma_{c|d}
    weights = spd_solve(base[img.pixel_offsets], c[img.pixel_index] - img.c_obs)
    return krige(c, eig_cov, img.pixel_index, weights, img.c_obs)


def sample_aux_data_fc(state: ModelState, model: SbdModel, rng):
    """Refresh the padding nodes of the data; observed nodes stay at d_o.

    The Kriging weights solve over the Kronecker factors of the noise
    correlation, factored once per model, because the observed window is a
    row-block x column-block.
    """
    lat, noise = model.lattice, model.noise
    mean = convolve_columns(state.w_star, state.c)
    mean_hat = np.fft.fft2(mean, norm="ortho")
    eig_cov = state.sigma_d2 * noise.theta
    d = sample_fourier_gaussian(FourierGaussian(mean_hat, eig_cov), rng)

    window = np.ix_(lat.data_rows, lat.data_cols)
    d_obs = state.d[window]
    resid = d[window] - d_obs
    weights = scipy.linalg.cho_solve(
        noise.chol_obs_v, scipy.linalg.cho_solve(noise.chol_obs_h, resid.T).T)
    return krige(d, noise.theta, window, weights, d_obs)


# --- sums of squares and conjugate variance updates ----------------------

def sum_squares_data(state: ModelState, model: SbdModel):
    """(d - W c)^T R_d^{-1} (d - W c), evaluated in the Fourier domain."""
    resid = state.d - convolve_columns(state.w_star, state.c)
    rhat = np.fft.fft2(resid, norm="ortho")
    return float(np.sum((rhat.real**2 + rhat.imag**2) / model.noise.theta))


def sum_squares_image(state: ModelState, model: SbdModel):
    chat = np.fft.fft2(state.c, norm="ortho")
    return float(np.sum((chat.real**2 + chat.imag**2) / model.image.theta))


def sum_squares_blur(state: ModelState, model: SbdModel):
    return float(state.omega @ model.blur.solve(state.omega))


def _draw_inverse_gamma(alpha, beta, rng):
    if beta <= 0 or not np.isfinite(beta):
        raise NonPositiveScale(f"inverse-gamma scale {beta!r} must be positive")
    return beta / rng.gamma(shape=alpha)


def sigma_w_conditional(state: ModelState, model: SbdModel, ssd):
    lat, hp = model.lattice, model.hp
    ssw = sum_squares_blur(state, model)
    alpha = hp.alpha_w + (lat.n + lat.blur_len) / 2.0
    beta = hp.beta_w + 0.5 * (ssd / (hp.psi * state.sigma_c2 * state.zeta) + ssw)
    return alpha, beta


def sample_sigma_w(state: ModelState, model: SbdModel, ssd, rng):
    alpha, beta = sigma_w_conditional(state, model, ssd)
    return _draw_inverse_gamma(alpha, beta, rng)


def sigma_c_conditional(state: ModelState, model: SbdModel, ssd):
    # The likelihood contributes SSD scaled by the remaining factors of the
    # derived noise variance; the image prior contributes SSC/2 unscaled.
    lat, hp = model.lattice, model.hp
    ssc = sum_squares_image(state, model)
    alpha = hp.alpha_c + lat.n
    beta = hp.beta_c + ssd / (2.0 * hp.psi * state.sigma_w2 * state.zeta) + ssc / 2.0
    return alpha, beta


def sample_sigma_c(state: ModelState, model: SbdModel, ssd, rng):
    alpha, beta = sigma_c_conditional(state, model, ssd)
    return _draw_inverse_gamma(alpha, beta, rng)


def zeta_conditional(state: ModelState, model: SbdModel, ssd):
    lat, hp = model.lattice, model.hp
    alpha = hp.alpha_zeta + lat.n / 2.0
    beta = hp.beta_zeta + ssd / (2.0 * hp.psi * state.sigma_c2 * state.sigma_w2)
    return alpha, beta


def sample_zeta(state: ModelState, model: SbdModel, ssd, rng):
    alpha, beta = zeta_conditional(state, model, ssd)
    return _draw_inverse_gamma(alpha, beta, rng)


def gibbs_sweep(state: ModelState, model: SbdModel, streams, alpha=0.0,
                hmc_cfg=None, ws: GibbsWorkspace = None, counters=None):
    """One full pass: blur (Gibbs or HMC), image, auxiliary data, variances.

    ``alpha`` is the probability of updating the blur with the marginal HMC
    move instead of its Gibbs full conditional.
    """
    if ws is None:
        ws = GibbsWorkspace()
    use_hmc = alpha > 0.0 and (alpha >= 1.0 or streams.mix.random() < alpha)
    if use_hmc:
        from .hmc import hmc_update

        result = hmc_update(state, model, hmc_cfg, streams)
        state.w_star = embed_blur(result.omega, model.lattice)
        state.omega = result.omega
        if counters is not None:
            counters["blur_hmc"] = counters.get("blur_hmc", 0) + 1
            counters["hmc_accept"] = counters.get("hmc_accept", 0) + int(result.accepted)
            counters["last_delta_h"] = result.delta_h
            counters["last_accept"] = result.accepted
    else:
        state.w_star, state.omega = sample_blur_fc(state, model, streams.blur, ws)
        if counters is not None:
            counters["blur_gibbs"] = counters.get("blur_gibbs", 0) + 1

    state.c = sample_image_fc(state, model, streams.image)
    ws.invalidate()
    state.d = sample_aux_data_fc(state, model, streams.data)
    # the data sum of squares depends on none of the variances
    ssd = sum_squares_data(state, model)
    state.sigma_c2 = sample_sigma_c(state, model, ssd, streams.sigma_c)
    state.sigma_w2 = sample_sigma_w(state, model, ssd, streams.sigma_w)
    state.zeta = sample_zeta(state, model, ssd, streams.zeta)
    return state
