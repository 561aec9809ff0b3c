"""The benchmark's own checks fail on corrupted input, so none is vacuous.

Run from the root of the repository:

    python3 -m pytest bench/test_checks.py -q
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from lanes import Bench  # noqa: E402
from problems import WORKLOADS  # noqa: E402
from sbdeconv.chain import SamplerConfig, run_chain  # noqa: E402
from sbdeconv.gauss import RngStreams  # noqa: E402
import sbdeconv.gauss  # noqa: E402
import sbdeconv.model  # noqa: E402
from sbdeconv.hmc import DIVERGENCE_THRESHOLD, HmcConfig, HmcResult, hmc_update  # noqa: E402
from tracing import COUNTED, SPANNED, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def desk():
    """A desk-workload chain a few dozen sweeps past its prior draw."""
    bench = Bench(WORKLOADS["desk"], seed=3)
    bench.setup()
    run_chain(bench.model, bench.d_obs, SamplerConfig(iterations=50, seed=4),
              state=bench.state)
    return bench


def test_clean_state_passes(desk):
    assert checks.state_violations(desk.state, desk.model, desk.d_obs) == []


@pytest.mark.parametrize("corrupt, message", [
    (lambda s, lat: s.c.__setitem__(tuple(lat.image_pixels[0]),
                                    s.c[tuple(lat.image_pixels[0])] + 1e-6),
     "constrained image pixel"),
    (lambda s, lat: s.w_star.__setitem__(lat.blur_free[0], 1e-6),
     "blur off its support"),
    (lambda s, lat: s.d.__setitem__((lat.data_rows[0], lat.data_cols[0]),
                                    s.d[lat.data_rows[0], lat.data_cols[0]] + 1e-6),
     "observed data node"),
])
def test_state_check_catches_a_moved_coordinate(desk, corrupt, message):
    state = desk.state.copy()
    corrupt(state, desk.model.lattice)
    found = checks.state_violations(state, desk.model, desk.d_obs)
    assert any(message in v for v in found), found


def test_gradient_check_catches_one_perturbed_coordinate(desk):
    grad, fd = checks.gradient_pair(desk.state, desk.model)
    assert checks.gradient_violations(grad, fd) == []
    bad = grad.copy()
    bad[2] += 1e-4 * np.abs(fd).max()
    assert checks.gradient_violations(bad, fd)


def test_directional_check_catches_a_perturbed_derivative(desk):
    direction = np.ones(desk.model.lattice.blur_len)
    direction /= np.linalg.norm(direction)
    gv, fd, norm = checks.directional_pair(desk.state, desk.model, direction)
    assert checks.gradient_violations(gv, fd, scale=norm) == []
    assert checks.gradient_violations(gv + 1e-4 * norm, fd, scale=norm)


def test_oracle_check_catches_a_corrupted_conditional(desk):
    pairs = checks.oracle_pairs(desk.state, desk.model)
    assert checks.pair_violations(pairs) == []
    for name, (got, ref) in pairs.items():
        bad = dict(pairs)
        bad[name] = (np.asarray(got) * (1.0 + 1e-6), ref)
        assert checks.pair_violations(bad), name


def test_trace_check_catches_a_non_finite_trace(desk):
    out = run_chain(desk.model, desk.d_obs, SamplerConfig(iterations=3, seed=5),
                    state=desk.state.copy())
    assert checks.trace_violations(out) == []
    out.sigma_w2[1] = np.nan
    assert checks.trace_violations(out)


def test_divergent_result_counts_as_divergent():
    flagged = HmcResult(np.zeros(3), False, np.inf, 0.02, divergent=True)
    assert checks.divergent_sweeps([flagged.delta_h], DIVERGENCE_THRESHOLD) == 1
    assert checks.divergent_sweeps([0.3, -2.0], DIVERGENCE_THRESHOLD) == 0
    assert checks.divergent_sweeps([-2 * DIVERGENCE_THRESHOLD], DIVERGENCE_THRESHOLD) == 1


def test_energy_error_agrees_with_the_divergent_flag(desk):
    # a far too long step leaves the finite range or the positive-definite
    # region; the chain output only keeps the energy error
    result = hmc_update(desk.state.copy(), desk.model, HmcConfig(5, 50.0),
                        RngStreams(8))
    assert result.divergent
    assert checks.divergent_sweeps([result.delta_h], DIVERGENCE_THRESHOLD) == 1


def test_divergent_chunk_counts_as_failed_and_is_not_timed():
    wl = dataclasses.replace(WORKLOADS["desk"], hmc_step_size=50.0)
    bench = Bench(wl, seed=3)
    bench.setup()
    bench.chunk("hmc", 4, (1, 1))
    assert bench.attempted == 4 and bench.failed == 4
    assert bench.times["hmc", 0] == []
    bench.chunk("gibbs", 5, (1, 0))
    assert bench.attempted == 9 and bench.failed == 4
    assert len(bench.times["gibbs", 0]) == 1


def test_tracer_counts_per_sweep_and_restores_every_function():
    patched = [(owner, attr) for owner, attr, _ in SPANNED + COUNTED] + [
        (sbdeconv.gauss, "spd_factor"), (sbdeconv.model, "spd_factor")]
    originals = [getattr(owner, attr) for owner, attr in patched]
    bench = Bench(WORKLOADS["desk"], seed=3, tracer=Tracer())
    bench.setup()
    bench.tracer.install()
    try:
        bench.chunk("hmc", 2, (1, 1, 1), traced=1)
    finally:
        bench.tracer.remove()
    assert [getattr(owner, attr) for owner, attr in patched] == originals
    names = [span[0] for span in bench.tracer.spans]
    steps = WORKLOADS["desk"].hmc_steps
    assert names.count("chain.gibbs_sweep") == names.count("hmc.update") == 2
    assert names.count("hmc.grad") == 2 * (steps + 1)
    assert bench.tracer.counts["hmc", "fft"] > 0
    assert bench.failed == 0
