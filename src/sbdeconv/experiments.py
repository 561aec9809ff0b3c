"""Synthetic data generation and the two reproducible studies.

``simulate_dataset`` draws variances, blur, image, and data from the model on
a large cyclic lattice and crops the central observed window, so the target
window carries no wrap-around artifacts.  ``constraint_sweep`` compares the
Gibbs and HMC blur updates across constraint counts; ``padding_sweep`` maps
estimation bias against the padding size.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .chain import SamplerConfig, draw_prior_variances, run_chain, \
    sample_constrained_image, sample_noise
from .diagnostics import ess, msjd, rmse, sign_changes
from .errors import DimensionMismatch
from .fourier import convolve_columns
from .gauss import RngStreams
from .model import HyperParams, LatticeSpec, SbdModel, embed_blur


@dataclass(frozen=True)
class SimRecipe:
    """How to simulate one dataset.

    The generation lattice is ``embed_factor`` times the target in each
    direction; exact image observations default to the full central column
    of the observed window.
    """

    n_v_obs: int = 24
    n_h_obs: int = 6
    blur_len: int = 10
    embed_factor: int = 10
    seed: int = 0
    hp: HyperParams = field(default_factory=HyperParams)
    exact_obs_column: int | None = None     # None: central column
    exact_obs_rows: tuple = ()              # empty: all rows of that column
    forced_variances: tuple | None = None   # (sigma_c2, sigma_w2, zeta) override

    def generation_lattice(self):
        n_v = self.embed_factor * self.n_v_obs
        n_h = self.embed_factor * self.n_h_obs
        if n_v % 2:
            raise DimensionMismatch("generation lattice must have even rows")
        return LatticeSpec.create(n_v, n_h, self.blur_len, m_v=0, m_h=0)


def simulate_dataset(recipe: SimRecipe, streams: RngStreams = None):
    """Sample (variances, blur, image, data) and crop the observed window."""
    if streams is None:
        streams = RngStreams(recipe.seed)
    rng = streams.sim
    gen_lat = recipe.generation_lattice()
    model = SbdModel.build(gen_lat, recipe.hp, [])

    if recipe.forced_variances is not None:
        sigma_c2, sigma_w2, zeta = recipe.forced_variances
    else:
        sigma_c2, sigma_w2, zeta = draw_prior_variances(model, rng)
    omega = model.blur.sample_omega(sigma_w2, rng)
    w_star = embed_blur(omega, gen_lat)
    c = sample_constrained_image(model, sigma_c2, rng)

    sigma_d2 = model.noise.sigma_d2(sigma_c2, sigma_w2, zeta)
    mean = convolve_columns(w_star, c)
    noise = sample_noise(model, sigma_d2, rng)
    d = mean + noise

    # central observed window
    r0 = (gen_lat.n_v - recipe.n_v_obs) // 2
    c0 = (gen_lat.n_h - recipe.n_h_obs) // 2
    rows = slice(r0, r0 + recipe.n_v_obs)
    cols = slice(c0, c0 + recipe.n_h_obs)
    d_obs = d[rows, cols].copy()
    c_true = c[rows, cols].copy()
    signal_window = mean[rows, cols].copy()
    noise_window = noise[rows, cols].copy()

    col = recipe.exact_obs_column
    if col is None:
        col = recipe.n_h_obs // 2
    obs_rows = np.asarray(recipe.exact_obs_rows, dtype=int) if recipe.exact_obs_rows \
        else np.arange(recipe.n_v_obs)
    c_o = c_true[obs_rows, col]

    return {
        "d_obs": d_obs,
        "c_true": c_true,
        "c_o": c_o,
        "obs_rows": obs_rows,
        "obs_col": int(col),
        "signal_window": signal_window,
        "noise_window": noise_window,
        "truth": {
            "omega": omega,
            "sigma_c2": float(sigma_c2),
            "sigma_w2": float(sigma_w2),
            "zeta": float(zeta),
        },
        "metadata": {
            "seed": recipe.seed,
            "n_v_obs": recipe.n_v_obs,
            "n_h_obs": recipe.n_h_obs,
            "blur_len": recipe.blur_len,
            "embed_factor": recipe.embed_factor,
        },
    }


def empirical_snr(dataset):
    """Power of the blurred image over the power of the additive noise."""
    sig = float(np.mean(dataset["signal_window"] ** 2))
    noi = float(np.mean(dataset["noise_window"] ** 2))
    return sig / noi


def _sweep_chain(model, d_obs, alpha, iters, burn_in, hmc_steps, eps, seed,
                 max_lag):
    cfg = SamplerConfig(alpha=alpha, iterations=iters, burn_in=burn_in,
                        seed=seed, hmc_steps=hmc_steps, hmc_step_size=eps,
                        hmc_adapt=True, image_trace=4)
    out = run_chain(model, d_obs, cfg)
    k = out.omega.shape[1]
    central = out.omega[:, k // 2]
    return {
        "ess_omega": [ess(out.omega[:, i], max_lag) for i in range(k)],
        "msjd_omega": [msjd(out.omega[:, i]) for i in range(k)],
        "ess_sigma_c2": ess(out.sigma_c2, max_lag),
        "ess_sigma_w2": ess(out.sigma_w2, max_lag),
        "ess_zeta": ess(out.zeta, max_lag),
        "mode_visits": sign_changes(central),
        "eps": out.manifest["hmc_step_size"],
        "accept_rate": (out.counters["hmc_accept"] / out.counters["blur_hmc"]
                        if out.counters["blur_hmc"] else None),
        "output": out,
    }


def constraint_sweep(m_values=None, alphas=(0.0, 1.0), seed=0, iterations=4500,
                     burn_in=1500, hmc_steps=40, hmc_step_size=0.02,
                     max_lag=1500, n_v=24, blur_len=10, keep_outputs=False):
    """Gibbs-vs-HMC comparison across exact-observation counts on a column lattice.

    The dataset lives on an unpadded cyclic n_v x 1 lattice; for each m the
    constrained pixels are taken symmetrically around the central row.
    """
    if m_values is None:
        m_values = list(range(0, n_v + 1, 2))
    recipe = SimRecipe(n_v_obs=n_v, n_h_obs=1, blur_len=blur_len,
                       embed_factor=1, seed=seed)
    data = simulate_dataset(recipe)
    d_obs, c_true = data["d_obs"], data["c_true"]

    rows_order = _symmetric_rows(n_v)
    table = []
    for m in m_values:
        rows = np.sort(rows_order[:m])
        lat = LatticeSpec.create(n_v, 1, blur_len, m_v=0, m_h=0,
                                 image_rows=rows, image_cols=[0] if m else [])
        c_o = c_true[rows, 0] if m else []
        model = SbdModel.build(lat, recipe.hp, c_o)
        for alpha in alphas:
            res = _sweep_chain(model, d_obs, alpha, iterations, burn_in,
                               hmc_steps, hmc_step_size,
                               RngStreams.derive(seed, int(1000 * alpha) + m),
                               max_lag)
            row = {
                "m": int(m),
                "alpha": float(alpha),
                "ess_omega_median": float(np.median(res["ess_omega"])),
                "msjd_omega_median": float(np.median(res["msjd_omega"])),
                "ess_sigma_c2": res["ess_sigma_c2"],
                "ess_sigma_w2": res["ess_sigma_w2"],
                "ess_zeta": res["ess_zeta"],
                "mode_visits": res["mode_visits"],
                "eps": res["eps"],
            }
            if keep_outputs:
                row["output"] = res["output"]
            table.append(row)
    return {"table": table, "truth": data["truth"], "seed": seed}


def _symmetric_rows(n_v):
    """Rows ordered by distance from the central row, alternating sides."""
    center = n_v // 2
    order = [center]
    for step in range(1, n_v):
        for cand in (center - step, center + step):
            if 0 <= cand < n_v and cand not in order:
                order.append(cand)
    return np.asarray(order[:n_v], dtype=int)


def _padding_cell(args):
    (recipe_dict, d_obs, c_o, obs_rows, obs_col, truth, m_v, m_h,
     iterations, burn_in, seed) = args
    recipe = SimRecipe(**recipe_dict)
    lat = LatticeSpec.create(recipe.n_v_obs, recipe.n_h_obs, recipe.blur_len,
                             m_v=m_v, m_h=m_h,
                             image_rows=obs_rows, image_cols=[obs_col])
    model = SbdModel.build(lat, recipe.hp, c_o)
    cfg = SamplerConfig(alpha=0.0, iterations=iterations, burn_in=burn_in,
                        seed=seed, image_trace=0)
    out = run_chain(model, d_obs, cfg)
    k = lat.blur_len
    rmse_omega = [rmse(out.omega[:, i], truth["omega"][i]) for i in range(k)]
    return {
        "m_v": int(m_v),
        "m_h": int(m_h),
        "rmse_omega_mean": float(np.mean(rmse_omega)),
        "rmse_sigma_c2": rmse(out.sigma_c2, truth["sigma_c2"]),
        "rmse_sigma_w2": rmse(out.sigma_w2, truth["sigma_w2"]),
        "rmse_zeta": rmse(out.zeta, truth["zeta"]),
    }


def padding_sweep(mv_values=(0, 2, 6, 12, 24, 36, 48, 72),
                  mh_values=(0, 6, 12), seed=0, iterations=3000, burn_in=1000,
                  recipe: SimRecipe = None, workers=1):
    """RMSE against the simulation truth over a padding grid."""
    recipe = recipe if recipe is not None else SimRecipe(seed=seed)
    data = simulate_dataset(recipe)
    recipe_dict = {
        "n_v_obs": recipe.n_v_obs, "n_h_obs": recipe.n_h_obs,
        "blur_len": recipe.blur_len, "embed_factor": recipe.embed_factor,
        "seed": recipe.seed, "hp": recipe.hp,
    }
    jobs = []
    for i, m_v in enumerate(mv_values):
        for j, m_h in enumerate(mh_values):
            jobs.append((recipe_dict, data["d_obs"], data["c_o"],
                         data["obs_rows"], data["obs_col"], data["truth"],
                         m_v, m_h, iterations, burn_in,
                         RngStreams.derive(seed, 100 * i + j)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            table = list(pool.map(_padding_cell, jobs))
    else:
        table = [_padding_cell(job) for job in jobs]
    return {"table": table, "truth": data["truth"], "seed": seed,
            "metadata": data["metadata"]}
