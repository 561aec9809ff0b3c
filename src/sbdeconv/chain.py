"""Chain execution: initialization, sweeps, trace recording, adaptation."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .fourier import convolve_columns
from .gauss import FourierGaussian, RngStreams, krige, sample_fourier_gaussian, spd_solve
from .gibbs import GibbsWorkspace, gibbs_sweep
from .hmc import DualAveraging, HmcConfig
from .model import ModelState, SbdModel, embed_blur


@dataclass
class SamplerConfig:
    """Sampler block of a run: mixture weight, lengths, seeds, HMC settings."""

    alpha: float = 0.0
    iterations: int = 1000
    burn_in: int = 0
    thin: int = 1
    seed: int = 0
    hmc_steps: int = 10
    hmc_step_size: float = 0.01
    hmc_adapt: bool = True
    hmc_target_accept: float = 0.65
    image_trace: int = 4          # number of image coordinates recorded

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise DimensionMismatch("alpha must lie in [0, 1]")
        if self.iterations < 1 or self.burn_in < 0 or self.thin < 1:
            raise DimensionMismatch("invalid chain lengths")


@dataclass
class ChainOutput:
    """Per-iteration traces plus run metadata sufficient for replay."""

    omega: np.ndarray
    sigma_c2: np.ndarray
    sigma_w2: np.ndarray
    zeta: np.ndarray
    c_trace: np.ndarray
    c_trace_index: np.ndarray
    d_aux_mean: np.ndarray
    d_aux_sd: np.ndarray
    hmc_delta_h: np.ndarray
    hmc_accept: np.ndarray
    hmc_eps: np.ndarray
    counters: dict
    manifest: dict


def draw_prior_variances(model: SbdModel, rng):
    hp = model.hp
    sc = hp.beta_c / rng.gamma(hp.alpha_c)
    sw = hp.beta_w / rng.gamma(hp.alpha_w)
    zt = hp.beta_zeta / rng.gamma(hp.alpha_zeta)
    return sc, sw, zt


def sample_constrained_image(model: SbdModel, sigma_c2, rng):
    """One draw from the image prior conditioned on the exact pixels.

    The Kriging step uses the correlation R_c; sigma_c2 cancels from it.
    """
    img = model.image
    g = FourierGaussian(np.zeros(img.theta.shape, dtype=complex),
                        sigma_c2 * img.theta)
    c = sample_fourier_gaussian(g, rng)
    weights = spd_solve(img.base[img.pixel_offsets], c[img.pixel_index] - img.c_obs)
    return krige(c, img.theta, img.pixel_index, weights, img.c_obs)


def init_state_from_prior(model: SbdModel, d_obs, streams: RngStreams) -> ModelState:
    """Algorithm start: prior draws for all blocks, data imputed around d_o."""
    lat = model.lattice
    d_obs = np.asarray(d_obs, dtype=float)
    if d_obs.shape != (lat.n_v_obs, lat.n_h_obs):
        raise DimensionMismatch("observed data grid does not match the lattice")
    rng = streams.init
    sc, sw, zt = draw_prior_variances(model, rng)
    omega = model.blur.sample_omega(sw, rng)
    w_star = embed_blur(omega, lat)
    c = sample_constrained_image(model, sc, rng)

    sigma_d2 = model.noise.sigma_d2(sc, sw, zt)
    mean = convolve_columns(w_star, c)
    noise = sample_fourier_gaussian(
        FourierGaussian(np.zeros((lat.n_v, lat.n_h), dtype=complex),
                        sigma_d2 * model.noise.theta), rng)
    d = mean + noise
    d[np.ix_(lat.data_rows, lat.data_cols)] = d_obs

    state = ModelState(omega=omega, w_star=w_star, c=c, d=d,
                       sigma_c2=sc, sigma_w2=sw, zeta=zt, psi=model.hp.psi)
    state.check(model)
    return state


def run_chain(model: SbdModel, d_obs, cfg: SamplerConfig,
              state: ModelState = None) -> ChainOutput:
    """Run one chain and collect retained post-burn-in traces."""
    lat = model.lattice
    streams = RngStreams(cfg.seed)
    if state is None:
        state = init_state_from_prior(model, d_obs, streams)
    ws = GibbsWorkspace()

    aux = model.aux_index
    n_keep = (cfg.iterations - cfg.burn_in + cfg.thin - 1) // cfg.thin
    if n_keep <= 0:
        raise DimensionMismatch("no retained iterations after burn-in/thinning")
    c_index = np.linspace(0, lat.n - 1, num=min(cfg.image_trace, lat.n),
                          dtype=int) if cfg.image_trace else np.empty(0, dtype=int)

    k = lat.blur_len
    out_omega = np.empty((n_keep, k))
    out_sc = np.empty(n_keep)
    out_sw = np.empty(n_keep)
    out_zt = np.empty(n_keep)
    out_c = np.empty((n_keep, c_index.size))
    out_dmean = np.empty(n_keep)
    out_dsd = np.empty(n_keep)
    hmc_dh, hmc_acc, hmc_eps = [], [], []

    use_hmc = cfg.alpha > 0.0
    adapter = None
    hmc_cfg = None
    if use_hmc:
        hmc_cfg = HmcConfig(cfg.hmc_steps, cfg.hmc_step_size,
                            target_accept=cfg.hmc_target_accept)
        if cfg.hmc_adapt:
            adapter = DualAveraging(cfg.hmc_step_size, target=cfg.hmc_target_accept)

    counters = {"blur_gibbs": 0, "blur_hmc": 0, "hmc_accept": 0}
    kept = 0
    t0 = time.perf_counter()
    for it in range(cfg.iterations):
        if use_hmc and adapter is not None and it == cfg.burn_in:
            hmc_cfg.step_size = adapter.adapted       # freeze after burn-in
        before = counters["blur_hmc"]
        gibbs_sweep(state, model, streams, alpha=cfg.alpha, hmc_cfg=hmc_cfg, ws=ws,
                    counters=counters)
        if counters["blur_hmc"] > before:
            dh = counters.get("last_delta_h", np.nan)
            hmc_dh.append(dh)
            hmc_acc.append(counters.get("last_accept", False))
            hmc_eps.append(hmc_cfg.step_size)
            if adapter is not None and it < cfg.burn_in:
                if not np.isfinite(dh):
                    a_prob = 0.0
                else:
                    a_prob = 1.0 if dh <= 0 else float(np.exp(-dh))
                hmc_cfg.step_size = adapter.update(a_prob)

        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            out_omega[kept] = state.omega
            out_sc[kept] = state.sigma_c2
            out_sw[kept] = state.sigma_w2
            out_zt[kept] = state.zeta
            if c_index.size:
                out_c[kept] = np.ravel(state.c, order="F")[c_index]
            d_flat = np.ravel(state.d, order="F")
            out_dmean[kept] = d_flat[aux].mean() if aux.size else 0.0
            out_dsd[kept] = d_flat[aux].std() if aux.size else 0.0
            kept += 1
    elapsed = time.perf_counter() - t0
    counters = {k: v for k, v in counters.items() if not k.startswith("last_")}

    manifest = {
        "seed": cfg.seed,
        "alpha": cfg.alpha,
        "iterations": cfg.iterations,
        "burn_in": cfg.burn_in,
        "thin": cfg.thin,
        "hmc_steps": cfg.hmc_steps if use_hmc else None,
        "hmc_step_size": (hmc_cfg.step_size if hmc_cfg else None),
        "elapsed_seconds": elapsed,
        "counters": dict(counters),
    }
    return ChainOutput(out_omega[:kept], out_sc[:kept], out_sw[:kept],
                       out_zt[:kept], out_c[:kept], c_index,
                       out_dmean[:kept], out_dsd[:kept],
                       np.asarray(hmc_dh), np.asarray(hmc_acc, dtype=bool),
                       np.asarray(hmc_eps), counters, manifest)
