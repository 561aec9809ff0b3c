"""Reference figure, not a gated metric: effective samples per second per lane.

    python3 bench/ess_reference.py --workload desk --seed 1 --seconds 30

Builds the workload as bench/run.py does, warms the chain up, then runs
each lane as one ``run_chain`` call of about ``--seconds`` and divides the
ESS of every blur coordinate (``sbdeconv.diagnostics.ess``, lag cut at a
tenth of the chain) by the call's wall time.  A change that is exact to
rounding still flips HMC accept decisions and so changes the chain and its
ESS; that is why this figure is not one the benchmark gates on.
"""

import argparse
import json
import sys
import time

import run  # sets the thread environment before numpy loads

from problems import WORKLOADS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    run.import_package()
    run.pin_to_last_cpu()
    import numpy as np
    from lanes import Bench
    from sbdeconv.chain import SamplerConfig, run_chain
    from sbdeconv.diagnostics import ess

    bench = Bench(WORKLOADS[args.workload], args.seed)
    bench.setup()
    bench.warm_up()
    wl = bench.wl
    report = {}
    for lane, alpha in (("gibbs", 0.0), ("hmc", 1.0)):
        # size the chain from one timed chunk
        n = wl.gibbs_chunk if lane == "gibbs" else wl.hmc_chunk
        failed = bench.failed
        t0 = time.perf_counter()
        bench.chunk(lane, n, (1, 9))
        per_sweep = (time.perf_counter() - t0) / n
        if bench.failed > failed:
            sys.exit(f"ess_reference: the {lane} sizing chunk failed: "
                     + "; ".join(bench.violations))
        sweeps = max(int(args.seconds / per_sweep), 20)
        cfg = SamplerConfig(alpha=alpha, iterations=sweeps, seed=args.seed + 17,
                            hmc_steps=wl.hmc_steps, hmc_step_size=wl.hmc_step_size,
                            hmc_adapt=False)
        t0 = time.perf_counter()
        out = run_chain(bench.model, bench.d_obs, cfg, state=bench.state)
        elapsed = time.perf_counter() - t0
        per_coord = [ess(out.omega[:, i], max_lag=max(sweeps // 10, 1)) / elapsed
                     for i in range(out.omega.shape[1])]
        report[lane] = {"sweeps": sweeps, "seconds": elapsed,
                        "ess_per_s_median": float(np.median(per_coord)),
                        "ess_per_s_min": float(np.min(per_coord))}
    print(json.dumps({"workload": args.workload, "seed": args.seed, **report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
