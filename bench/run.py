"""Sampler benchmark: cost per sweep of the Gibbs and HMC lanes of sbdeconv.

Run from the root of a checkout:

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --short        # every workload and check, briefly

One run builds the workload's model from seeded inputs, then alternates a
Gibbs-lane ``run_chain`` call (alpha=0) with an HMC-lane call (alpha=1,
fixed step size and leapfrog count) until ``--seconds`` have passed, and
checks the sampler's output on the way and at the end.  Between rounds it
times five cold set-ups, each in a fresh process started with
``--setup-only``.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced rounds and reports the per-layer metrics instead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  bench/README.md has the details.
"""

import os

# BLAS and OpenMP thread pools are sized when numpy loads, so the setting
# must be in the environment before the first numpy import
THREAD_SETTING = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_SETTING)

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SHORT_SECONDS = 1
SHORT_SEED = 1
SETUP_PROCESSES = 5


def import_package():
    """Put the checkout's src/ first on the path; fail if it is not there."""
    src = ROOT / "src"
    if not (src / "sbdeconv" / "__init__.py").is_file():
        sys.exit(f"bench: no sbdeconv package under {src}; "
                 "run from the root of a checkout of the repository")
    sys.path.insert(0, str(src))


def pin_to_last_cpu():
    """Run on one CPU, the last one usable: CPU 0 takes most interrupts and
    housekeeping, and on a shared 2-core VM its sweep times swing far more."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def cold_setup_s(workload, seed):
    """One cold set-up in a fresh process, in seconds.

    It is timed from just before the process starts to the end of its
    ``SbdModel.build`` plus ``init_state_from_prior``, less the time it spent
    drawing the inputs.  The process inherits this one's CPU and thread
    setting, and this one waits for it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    child = json.loads(proc.stdout.splitlines()[-1])
    return 1e-9 * (child["built_ns"] - t0) - child["input_s"]


def setup_only(workload, seed):
    """The child side of ``cold_setup_s``: one set-up, then its end time."""
    from lanes import Bench
    from problems import WORKLOADS

    input_s = Bench(WORKLOADS[workload], seed).setup()
    built_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    print(json.dumps({"built_ns": built_ns, "input_s": input_s}))


def environment():
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "thread_env": THREAD_SETTING,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
    }


def lane_ms(seconds_per_sweep):
    """Fastest of a lane's chunk times, in ms per sweep.

    Other tenants of a shared machine slow every chunk in a stretch of
    seconds by up to 2x, and CPU time rises with wall time, so it is the
    core that is contended, not the scheduler.  The fastest of many short
    chunks is the run's cost while uncontended; a slower program moves it
    as much as it moves the median.
    """
    return 1e3 * min(seconds_per_sweep) if seconds_per_sweep else float("nan")


def end_to_end_metrics(bench, setup_s, peak_rss_mb):
    """The fastest cold set-up and chunk of each lane, and the peak RSS."""
    return {
        "setup_s": (min(setup_s), "s"),
        "gibbs_sweep_ms": (lane_ms(bench.times["gibbs", 0]), "ms"),
        "hmc_sweep_ms": (lane_ms(bench.times["hmc", 0]), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def layer_metrics(bench):
    """Per-layer figures from the traced passes' spans and counters."""
    from lanes import LANES

    tracer = bench.tracer
    durations = {}
    child_ns = {}
    checks_ns = {}
    for name, start, end, parent in tracer.spans:
        durations.setdefault(name, []).append(end - start)
        child_ns[parent] = child_ns.get(parent, 0) + end - start
        if name == "bench.check":
            checks_ns[parent] = checks_ns.get(parent, 0) + end - start

    def ms(name):
        values = durations.get(name)
        return 1e-6 * statistics.median(values) if values else float("nan")

    self_ms = {lane: [] for lane in LANES}
    traced_s = {lane: [] for lane in LANES}
    sweeps = {lane: 0 for lane in LANES}
    for idx, lane, n in bench.traced_chunks:
        _, start, end, _ = tracer.spans[idx]
        sweeps[lane] += n
        self_ms[lane].append(1e-6 * (end - start - child_ns.get(idx, 0)) / n)
        traced_s[lane].append(1e-9 * (end - start - checks_ns.get(idx, 0)) / n)

    def per_sweep(lane, counter):
        return tracer.counts.get((lane, counter), 0) / max(sweeps[lane], 1)

    updates = max(len(durations.get("hmc.update", ())), 1)
    untraced = sum(lane_ms(bench.times[lane, 0]) for lane in LANES)
    traced = sum(lane_ms(traced_s[lane]) for lane in LANES)
    out = {
        "model.build_ms": (ms("model.build"), "ms"),
        "model.build_image_prior_ms": (ms("model.build_image_prior"), "ms"),
        "chain.init_ms": (ms("chain.init"), "ms"),
        "gibbs.blur_fc_ms": (ms("gibbs.blur_fc"), "ms"),
        "gibbs.image_fc_ms": (ms("gibbs.image_fc"), "ms"),
        "gibbs.aux_fc_ms": (ms("gibbs.aux_fc"), "ms"),
        "gibbs.variance_fc_ms": (ms("gibbs.sigma_c_fc") + ms("gibbs.sigma_w_fc")
                                 + ms("gibbs.zeta_fc"), "ms"),
        "hmc.update_ms": (ms("hmc.update"), "ms"),
        "hmc.potential_ms": (ms("hmc.potential"), "ms"),
        "hmc.grad_ms": (ms("hmc.grad"), "ms"),
        "hmc.grad_over_potential": (ms("hmc.grad") / ms("hmc.potential"), "ratio"),
        "hmc.potential_calls_per_update":
            (len(durations.get("hmc.potential", ())) / updates, "count"),
        "hmc.grad_calls_per_update":
            (len(durations.get("hmc.grad", ())) / updates, "count"),
        "hmc.accept_ratio":
            (sum(acc for acc, _ in tracer.hmc_results) / updates, "ratio"),
        "hmc.divergences": (sum(div for _, div in tracer.hmc_results), "count"),
        "gauss.nugget_retries": (tracer.nugget_retries, "count"),
        "trace.overhead_pct": (100.0 * (traced / untraced - 1.0), "%"),
    }
    for lane in LANES:
        out[f"chain.self_ms_per_sweep.{lane}"] = (
            statistics.median(self_ms[lane]) if self_ms[lane] else float("nan"), "ms")
        out[f"gibbs.sum_squares_data_calls_per_sweep.{lane}"] = (
            per_sweep(lane, "sum_squares_data"), "count")
        out[f"gauss.spd_factor_calls_per_sweep.{lane}"] = (
            per_sweep(lane, "spd_factor"), "count")
        out[f"fft.calls_per_{lane}_sweep"] = (per_sweep(lane, "fft"), "count")
        out[f"roll.calls_per_{lane}_sweep"] = (per_sweep(lane, "roll"), "count")
    return out


def run(workload, seed, seconds, trace):
    from lanes import Bench
    from problems import WORKLOADS
    from tracing import Tracer

    pin_to_last_cpu()
    bench = Bench(WORKLOADS[workload], seed, Tracer() if trace else None)
    if trace:
        bench.tracer.after_sweep = lambda state: bench.check_state("traced sweep")
        bench.tracer.install()
    try:
        bench.setup()
    finally:
        if trace:
            bench.tracer.remove()
    bench.warm_up()

    # A single cold set-up swings by up to 1.5x with the load of the machine's
    # other tenants, in stretches of seconds, so the untraced run takes one
    # in each fifth of its rounds and reports the fastest, as for the lanes.
    setup_s = []

    def cold_setup_due(elapsed):
        if not trace and len(setup_s) < SETUP_PROCESSES \
                and elapsed >= len(setup_s) * seconds / SETUP_PROCESSES:
            setup_s.append(cold_setup_s(workload, seed))

    bench.rounds(seconds, cold_setup_due)
    while not trace and len(setup_s) < SETUP_PROCESSES:
        setup_s.append(cold_setup_s(workload, seed))
    # read before the dense checks, whose matrices are not the sampler's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bench.final_checks()

    metrics = layer_metrics(bench) if trace else \
        end_to_end_metrics(bench, setup_s, peak_rss_mb)
    result = {
        "correct": not bench.violations,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    detail = dict(result, workload=workload, seed=seed, seconds=seconds,
                  environment=env, divergences=bench.divergences,
                  violations=bench.violations, setup_seconds=setup_s,
                  sweep_seconds={f"{lane}{'_traced' if traced else ''}": values
                                 for (lane, traced), values in bench.times.items()})
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if trace:
        bench.tracer.write_spans(OUT_DIR / f"{stem}-spans.csv")
    for message in bench.violations:
        print(f"bench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))


def short(seconds):
    """Every workload, untraced and traced, at reduced length; 0 if all pass."""
    from problems import WORKLOADS

    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed",
                   str(SHORT_SEED), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            good = result.get("correct") is True and result.get("failed") == 0
            ok &= good
            print(f"{workload:6s} trace={trace} {'ok  ' if good else 'FAIL'} "
                  f"attempted={result.get('attempted')} failed={result.get('failed')}")
            for name, metric in result.get("metrics", {}).items():
                print(f"    {name} = {metric['value']:.6g} {metric['unit']}")
            if not good:
                sys.stderr.write(proc.stderr)
    return 0 if ok else 1


def main(argv=None):
    import_package()
    from problems import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="run every workload and all its checks at reduced length")
    parser.add_argument("--setup-only", action="store_true",
                        help="one cold set-up, timed by the run that starts it")
    args = parser.parse_args(argv)
    if args.short:
        return short(SHORT_SECONDS)
    if args.workload is None:
        parser.error("--workload is required unless --short is given")
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
