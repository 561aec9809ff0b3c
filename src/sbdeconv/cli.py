"""Batch command-line front end.

Subcommands: simulate, sample, diagnose, experiment.  Exit codes: 0 success,
2 configuration error, 3 I/O error, 4 model/numerical error.  Set SBD_LOG to
DEBUG/INFO/WARNING to control verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

import numpy as np

from . import io as sio
from .chain import SamplerConfig, run_chain
from .diagnostics import ess, msjd, rmse
from .errors import ConfigError, DimensionMismatch, IoError, ModelError, SbdError
from .experiments import SimRecipe, constraint_sweep, padding_sweep, simulate_dataset
from .model import CorrelationSpec, HyperParams, LatticeSpec, SbdModel

log = logging.getLogger("sbd")


def _setup_logging():
    level = os.environ.get("SBD_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _hyper_from_config(cfg):
    model_cfg = cfg.get("model", {})
    hyper = dict(model_cfg.get("hyper", {}))
    blur = model_cfg.get("blur", {})
    image = model_cfg.get("image", {})
    noise = model_cfg.get("noise", {})

    def spec(section, suffix, default_phi, default_p):
        return CorrelationSpec(section.get(f"phi{suffix}", default_phi),
                               section.get(f"p{suffix}", default_p))

    kwargs = dict(hyper)
    if blur:
        kwargs["blur"] = CorrelationSpec(blur.get("phi", 2.0), blur.get("p", 1.98))
    if image:
        kwargs["image_h"] = spec(image, "_h", 1.5, 1.0)
        kwargs["image_v"] = spec(image, "_v", 1.5, 1.0)
    if noise:
        kwargs["noise_h"] = spec(noise, "_h", 1.5, 1.0)
        kwargs["noise_v"] = spec(noise, "_v", 1.5, 1.0)
    try:
        return HyperParams(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad hyperparameter block: {exc}") from exc


def _sampler_from_config(cfg, seed_override=None):
    sampler = dict(cfg.get("sampler", {}))
    if seed_override is not None:
        sampler["seed"] = seed_override
    try:
        return SamplerConfig(**sampler)
    except (TypeError, ValueError, DimensionMismatch) as exc:
        raise ConfigError(f"bad sampler block: {exc}") from exc


def _out_dir(cfg, args):
    out = args.out or cfg.get("io", {}).get("out_dir")
    if not out:
        raise ConfigError("no output directory: set io.out_dir or pass --out")
    os.makedirs(out, exist_ok=True)
    return out


def cmd_simulate(cfg, args):
    sim = cfg.get("simulate", {})
    seed = args.seed if args.seed is not None else cfg.get("sampler", {}).get("seed", 0)
    recipe = SimRecipe(
        n_v_obs=sim.get("n_v_obs", 24),
        n_h_obs=sim.get("n_h_obs", 6),
        blur_len=sim.get("blur_len", 10),
        embed_factor=sim.get("embed_factor", 10),
        exact_obs_column=sim.get("exact_obs_column"),
        seed=seed,
        hp=_hyper_from_config(cfg),
    )
    data = simulate_dataset(recipe)
    out = _out_dir(cfg, args)
    sio.write_matrix_csv(os.path.join(out, "data.csv"), data["d_obs"])
    sio.write_matrix_csv(os.path.join(out, "true_image.csv"), data["c_true"])
    sio.write_pixel_obs_csv(
        os.path.join(out, "image_obs.csv"),
        data["obs_rows"], np.full(len(data["obs_rows"]), data["obs_col"]),
        data["c_o"])
    sio.write_matrix_csv(os.path.join(out, "true_blur.csv"),
                         data["truth"]["omega"][None, :])
    sio.write_manifest(os.path.join(out, "manifest.json"), cfg, {
        "command": "simulate",
        "seed": seed,
        "truth_variances": {k: data["truth"][k]
                            for k in ("sigma_c2", "sigma_w2", "zeta")},
        "metadata": data["metadata"],
    })
    log.info("simulate: wrote dataset to %s", out)
    return 0


def _build_model_from_config(cfg, d_obs, pixel_obs):
    lattice_cfg = cfg.get("model", {}).get("lattice", {})
    required = ("n_v_obs", "n_h_obs", "blur_len")
    for key in required:
        if key not in lattice_cfg:
            raise ConfigError(f"model.lattice.{key} is required")
    if d_obs.shape != (lattice_cfg["n_v_obs"], lattice_cfg["n_h_obs"]):
        raise ConfigError(
            f"data shape {d_obs.shape} does not match lattice "
            f"({lattice_cfg['n_v_obs']}, {lattice_cfg['n_h_obs']})")
    rows, cols, values = pixel_obs
    lat = LatticeSpec.create(
        lattice_cfg["n_v_obs"], lattice_cfg["n_h_obs"], lattice_cfg["blur_len"],
        m_v=lattice_cfg.get("m_v"), m_h=lattice_cfg.get("m_h"),
        image_pixels=list(zip(rows, cols)),
    )
    order = np.lexsort((rows, cols))
    return SbdModel.build(lat, _hyper_from_config(cfg), values[order])


def cmd_sample(cfg, args):
    sampler = _sampler_from_config(cfg, args.seed)
    io_cfg = cfg.get("io", {})
    data_path = io_cfg.get("data")
    if not data_path:
        raise ConfigError("io.data is required for sampling")
    d_obs = sio.read_matrix_any(data_path)
    obs_path = io_cfg.get("image_obs")
    pixel_obs = sio.read_pixel_obs_csv(obs_path) if obs_path else \
        (np.empty(0, int), np.empty(0, int), np.empty(0))
    model = _build_model_from_config(cfg, d_obs, pixel_obs)

    t0 = time.perf_counter()
    out_chain = run_chain(model, d_obs, sampler)
    elapsed = time.perf_counter() - t0

    out = _out_dir(cfg, args)
    k = out_chain.omega.shape[1]
    sio.write_trace_csv(os.path.join(out, "trace_omega.csv"), out_chain.omega,
                        [f"omega_{i}" for i in range(k)])
    var_block = np.column_stack([out_chain.sigma_c2, out_chain.sigma_w2,
                                 out_chain.zeta])
    sio.write_trace_csv(os.path.join(out, "trace_variances.csv"), var_block,
                        ["sigma_c2", "sigma_w2", "zeta"])
    if out_chain.c_trace.size:
        sio.write_trace_csv(
            os.path.join(out, "trace_image.csv"), out_chain.c_trace,
            [f"c_{i}" for i in out_chain.c_trace_index])
    aux_block = np.column_stack([out_chain.d_aux_mean, out_chain.d_aux_sd])
    sio.write_trace_csv(os.path.join(out, "trace_aux_data.csv"), aux_block,
                        ["d_aux_mean", "d_aux_sd"])
    if out_chain.hmc_delta_h.size:
        hmc_block = np.column_stack([out_chain.hmc_delta_h,
                                     out_chain.hmc_accept.astype(float),
                                     out_chain.hmc_eps])
        sio.write_trace_csv(os.path.join(out, "trace_hmc.csv"), hmc_block,
                            ["delta_h", "accept", "eps"])
    sio.write_manifest(os.path.join(out, "manifest.json"), cfg, {
        "command": "sample",
        "seed": sampler.seed,
        "elapsed_seconds": elapsed,
        "chain": out_chain.manifest,
    })
    log.info("sample: wrote traces to %s", out)
    return 0


def cmd_diagnose(cfg, args):
    out = _out_dir(cfg, args)
    report = ["trace,column,ess,msjd,rmse"]
    truth = {}
    if args.truth:
        names, values = sio.read_trace_csv(args.truth)
        truth = dict(zip(names, values[0]))
    max_lag = args.max_lag
    for path in args.traces:
        names, data = sio.read_trace_csv(path)
        base = os.path.basename(path)
        for j, name in enumerate(names):
            column = data[:, j]
            lag = min(max_lag, len(column) - 1)
            e = ess(column, lag)
            m = msjd(column)
            r = rmse(column, truth[name]) if name in truth else ""
            report.append(f"{base},{name},{e:.6g},{m:.6g},{r}")
    sio.atomic_write_text(os.path.join(out, "diagnostics.csv"),
                          "\n".join(report) + "\n")
    log.info("diagnose: wrote %s", os.path.join(out, "diagnostics.csv"))
    return 0


def cmd_experiment(cfg, args):
    exp = dict(cfg.get("experiment", {}))
    name = args.name or exp.pop("name", None)
    if name not in ("constraint-sweep", "padding-sweep"):
        raise ConfigError(f"unknown experiment {name!r}; use constraint-sweep "
                          "or padding-sweep")
    seed = args.seed if args.seed is not None else cfg.get("sampler", {}).get("seed", 0)
    out = _out_dir(cfg, args)
    if name == "constraint-sweep":
        result = constraint_sweep(
            m_values=exp.get("m_values"),
            seed=seed,
            iterations=exp.get("iterations", 4500),
            burn_in=exp.get("burn_in", 1500),
        )
        header = ["m", "alpha", "ess_omega_median", "msjd_omega_median",
                  "ess_sigma_c2", "ess_sigma_w2", "ess_zeta", "mode_visits",
                  "eps"]
    else:
        recipe = SimRecipe(
            n_v_obs=exp.get("n_v_obs", 24), n_h_obs=exp.get("n_h_obs", 6),
            blur_len=exp.get("blur_len", 10),
            embed_factor=exp.get("embed_factor", 10), seed=seed,
            hp=_hyper_from_config(cfg),
            exact_obs_column=exp.get("exact_obs_column"),
        )
        result = padding_sweep(
            mv_values=exp.get("mv_values", (0, 2, 6, 12, 24, 36, 48, 72)),
            mh_values=exp.get("mh_values", (0, 6, 12)),
            seed=seed,
            iterations=exp.get("iterations", 3000),
            burn_in=exp.get("burn_in", 1000),
            recipe=recipe,
            workers=args.threads or exp.get("workers", 1),
        )
        header = ["m_v", "m_h", "rmse_omega_mean", "rmse_sigma_c2",
                  "rmse_sigma_w2", "rmse_zeta"]
    lines = [",".join(header)]
    for row in result["table"]:
        lines.append(",".join(str(row[h]) for h in header))
    sio.atomic_write_text(os.path.join(out, f"{name}.csv"),
                          "\n".join(lines) + "\n")
    sio.write_manifest(os.path.join(out, "manifest.json"), cfg, {
        "command": f"experiment:{name}",
        "seed": seed,
        "truth": result.get("truth"),
    })
    log.info("experiment %s: wrote table to %s", name, out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sbd",
        description="Bayesian semi-blind deconvolution on extended cyclic lattices",
    )
    parser.add_argument("--config", required=False, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker count for experiment grids")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="draw a synthetic dataset from the model")
    sub.add_parser("sample", help="run one MCMC chain on a dataset")
    diag = sub.add_parser("diagnose", help="ESS/MSJD/RMSE report for trace files")
    diag.add_argument("traces", nargs="+", help="trace CSV files")
    diag.add_argument("--truth", default=None,
                      help="single-row trace CSV of true values for RMSE")
    diag.add_argument("--max-lag", type=int, default=1500)
    exp = sub.add_parser("experiment", help="run a reproducible study")
    exp.add_argument("name", choices=["constraint-sweep", "padding-sweep"])
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = sio.load_config(args.config) if args.config else {}
        if args.command == "simulate":
            return cmd_simulate(cfg, args)
        if args.command == "sample":
            return cmd_sample(cfg, args)
        if args.command == "diagnose":
            return cmd_diagnose(cfg, args)
        if args.command == "experiment":
            return cmd_experiment(cfg, args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"sbd: config error: {exc}", file=sys.stderr)
        return 2
    except IoError as exc:
        print(f"sbd: io error: {exc}", file=sys.stderr)
        return 3
    except (ModelError, SbdError) as exc:
        print(f"sbd: model error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
