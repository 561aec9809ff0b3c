"""Fourier-domain Gibbs sampler: six full-conditional updates per sweep.

The blur, image, and auxiliary-data conditionals are sampled unconstrained in
the Fourier domain and corrected onto their hard constraints by
``gauss.krige``, one real FFT pair each; the three variance parameters have
conjugate inverse-gamma conditionals, which share one data sum of squares
per sweep.  Every conditional works on half spectra (``fourier`` module
docstring): ``GibbsWorkspace`` takes the half spectrum of each image, data
and blur array once, and the data and image sums of squares are weighted
half-spectrum quadratic forms of those spectra.  ``blur_fc_params``,
``image_fc_params`` and ``aux_fc_params`` return full spectra for callers
outside the sweep.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NonPositiveScale
from .fourier import half_quadform, half_to_full, rdft2
from .gauss import FourierGaussian, krige, sample_fourier_gaussian, spd_solve
from .model import ModelState, SbdModel, embed_blur


class GibbsWorkspace:
    """Half spectra of the current image, data and blur, each taken once.

    Updates replace ``state.c``, ``state.d`` and ``state.w_star`` rather
    than mutating them, so each array's identity keys its spectrum; the
    workspace holds the array it keyed on.
    """

    def __init__(self):
        self._cache = {}

    def _get(self, name, arr, fn):
        hit = self._cache.get(name)
        if hit is None or hit[0] is not arr:
            hit = (arr, fn(arr))
            self._cache[name] = hit
        return hit[1]

    def image_hat(self, state: ModelState):
        """Unitary half spectrum of ``state.c``."""
        return self._get("c", state.c, rdft2)

    def data_hat(self, state: ModelState):
        """Unitary half spectrum of ``state.d``."""
        return self._get("d", state.d, rdft2)

    def blur_eigs(self, state: ModelState, model: SbdModel):
        """Half column eigenvalues of the convolution with ``state.w_star``."""
        return self._get("w", state.w_star, model.spectrum.kernel_eigs)


def gamma_precision_eigs(chat, model: SbdModel):
    """Half eigenvalues of Gamma^T R_d^{-1} Gamma from the image spectrum.

    Gamma stacks the column convolutions by the image columns; with the
    unitary half spectrum ``chat`` of the image and the separable noise
    eigenvalues this is n_v sum_k |chat[l, k]|^2 / theta_d[l, k].
    """
    noise = model.noise
    return (model.lattice.n_v * ((chat.real**2 + chat.imag**2) @ noise.inv_theta_h)
            * noise.inv_theta_v)


def _blur_fc_half(state: ModelState, model: SbdModel, ws: GibbsWorkspace):
    sigma_d2 = state.sigma_d2
    noise, n_v = model.noise, model.lattice.n_v
    chat = ws.image_hat(state)
    eig_cov = 1.0 / (1.0 / (state.sigma_w2 * model.blur.theta)
                     + gamma_precision_eigs(chat, model) / sigma_d2)
    # Gamma^T Sigma_d^{-1} d: Parseval along the columns turns the sum of
    # the column products into one over the half grid; (-1)^l centres it
    cross = (np.conj(chat) * ws.data_hat(state)) @ noise.inv_theta_h
    bhat = cross * noise.inv_theta_v * model.spectrum.centre_sign
    return eig_cov * bhat * (np.sqrt(n_v) / sigma_d2), eig_cov


def _full_spectra(half_params, model: SbdModel):
    return tuple(half_to_full(x, model.lattice.n_v) for x in half_params)


def blur_fc_params(state: ModelState, model: SbdModel, ws: GibbsWorkspace = None):
    """Fourier-domain mean and covariance eigenvalues of the blur conditional,
    as full spectra of length n_v."""
    return _full_spectra(_blur_fc_half(state, model, ws or GibbsWorkspace()), model)


def sample_blur_fc(state: ModelState, model: SbdModel, rng, ws: GibbsWorkspace = None):
    """Draw w* from its full conditional; off-support entries land exactly at zero."""
    lat = model.lattice
    mean_hat, eig_cov = _blur_fc_half(state, model, ws or GibbsWorkspace())
    w = sample_fourier_gaussian(FourierGaussian(mean_hat, eig_cov, lat.n_v), rng)

    base = np.fft.irfft(eig_cov, lat.n_v)                # base of Sigma_{w|d}
    free = model.blur.free
    weights = spd_solve(base[model.blur.free_offsets], w[free])
    w_star = krige(w, eig_cov, free, weights, 0.0)
    omega = w_star[lat.blur_support].copy()
    return embed_blur(omega, lat), omega


def _image_fc_half(state: ModelState, model: SbdModel, ws: GibbsWorkspace):
    rows = model.spectrum.rows
    theta_w = ws.blur_eigs(state, model)[:, None]
    prior_eig = state.sigma_c2 * model.image.theta[:rows]
    noise_eig = state.sigma_d2 * model.noise.theta[:rows]
    denom = (theta_w.real**2 + theta_w.imag**2) * prior_eig + noise_eig

    mean_hat = prior_eig * np.conj(theta_w) * ws.data_hat(state) / denom
    eig_cov = prior_eig * noise_eig / denom
    return mean_hat, eig_cov


def image_fc_params(state: ModelState, model: SbdModel, ws: GibbsWorkspace = None):
    """Fourier-domain mean grid and covariance eigen grid of the image
    conditional, as full n_v x n_h spectra."""
    return _full_spectra(_image_fc_half(state, model, ws or GibbsWorkspace()), model)


def sample_image_fc(state: ModelState, model: SbdModel, rng, ws: GibbsWorkspace = None):
    """Draw the extended image; exactly observed pixels land exactly at c_o."""
    img, n_v = model.image, model.lattice.n_v
    mean_hat, eig_cov = _image_fc_half(state, model, ws or GibbsWorkspace())
    c = sample_fourier_gaussian(FourierGaussian(mean_hat, eig_cov, n_v), rng)
    # base of Sigma_{c|d}
    base = np.fft.irfft2(eig_cov, s=(eig_cov.shape[1], n_v), axes=(1, 0))
    weights = spd_solve(base[img.pixel_offsets], c[img.pixel_index] - img.c_obs)
    return krige(c, eig_cov, img.pixel_index, weights, img.c_obs)


def _aux_fc_half(state: ModelState, model: SbdModel, ws: GibbsWorkspace):
    # the mean W c: the column convolution is a product on the half grid
    mean_hat = ws.blur_eigs(state, model)[:, None] * ws.image_hat(state)
    return mean_hat, state.sigma_d2 * model.noise.theta[:model.spectrum.rows]


def aux_fc_params(state: ModelState, model: SbdModel, ws: GibbsWorkspace = None):
    """Fourier-domain mean grid and covariance eigen grid of the unconstrained
    data draw, N(W c, Sigma_d), as full n_v x n_h spectra."""
    return _full_spectra(_aux_fc_half(state, model, ws or GibbsWorkspace()), model)


def sample_aux_data_fc(state: ModelState, model: SbdModel, rng, ws: GibbsWorkspace = None):
    """Refresh the padding nodes of the data; observed nodes stay at d_o.

    The Kriging weights solve over the Kronecker factors of the noise
    correlation, factored once per model, because the observed window is a
    row-block x column-block.
    """
    lat, noise = model.lattice, model.noise
    mean_hat, eig_cov = _aux_fc_half(state, model, ws or GibbsWorkspace())
    d = sample_fourier_gaussian(FourierGaussian(mean_hat, eig_cov, lat.n_v), rng)

    window = np.ix_(lat.data_rows, lat.data_cols)
    d_obs = state.d[window]
    resid = d[window] - d_obs
    weights = scipy.linalg.cho_solve(
        noise.chol_obs_v, scipy.linalg.cho_solve(noise.chol_obs_h, resid.T).T)
    return krige(d, noise.theta[:model.spectrum.rows], window, weights, d_obs)


# --- sums of squares and conjugate variance updates ----------------------

def sum_squares_data(state: ModelState, model: SbdModel, ws: GibbsWorkspace = None):
    """(d - W c)^T R_d^{-1} (d - W c), evaluated in the Fourier domain."""
    ws = ws or GibbsWorkspace()
    resid = ws.data_hat(state) - ws.blur_eigs(state, model)[:, None] * ws.image_hat(state)
    return half_quadform(resid, model.noise.quad_weights)


def sum_squares_image(state: ModelState, model: SbdModel, ws: GibbsWorkspace = None):
    """c^T R_c^{-1} c, evaluated in the Fourier domain."""
    return half_quadform((ws or GibbsWorkspace()).image_hat(state),
                         model.image.quad_weights)


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


def sigma_c_conditional(state: ModelState, model: SbdModel, ssd,
                        ws: GibbsWorkspace = None):
    # The likelihood contributes SSD scaled by the remaining factors of the
    # derived noise variance; the image prior contributes SSC/2 unscaled.
    lat, hp = model.lattice, model.hp
    ssc = sum_squares_image(state, model, ws)
    alpha = hp.alpha_c + lat.n
    beta = hp.beta_c + ssd / (2.0 * hp.psi * state.sigma_w2 * state.zeta) + ssc / 2.0
    return alpha, beta


def sample_sigma_c(state: ModelState, model: SbdModel, ssd, rng,
                   ws: GibbsWorkspace = None):
    alpha, beta = sigma_c_conditional(state, model, ssd, ws)
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

        result = hmc_update(state, model, hmc_cfg, streams, ws.data_hat(state))
        state.w_star = embed_blur(result.omega, model.lattice)
        state.omega = result.omega
        if counters is not None:
            counters["blur_hmc"] = counters.get("blur_hmc", 0) + 1
            counters["hmc_accept"] = counters.get("hmc_accept", 0) + int(result.accepted)
            counters["hmc_divergent"] = (counters.get("hmc_divergent", 0)
                                         + int(result.divergent))
            counters["last_delta_h"] = result.delta_h
            counters["last_accept"] = result.accepted
    else:
        state.w_star, state.omega = sample_blur_fc(state, model, streams.blur, ws)
        if counters is not None:
            counters["blur_gibbs"] = counters.get("blur_gibbs", 0) + 1

    state.c = sample_image_fc(state, model, streams.image, ws)
    state.d = sample_aux_data_fc(state, model, streams.data, ws)
    # the data sum of squares depends on none of the variances; its data
    # spectrum serves the next sweep's blur update
    ssd = sum_squares_data(state, model, ws)
    state.sigma_c2 = sample_sigma_c(state, model, ssd, streams.sigma_c, ws)
    state.sigma_w2 = sample_sigma_w(state, model, ssd, streams.sigma_w)
    state.zeta = sample_zeta(state, model, ssd, streams.zeta)
    return state
