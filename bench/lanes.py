"""One benchmark run's model, chain state and the timed lanes over it.

The Gibbs lane is ``run_chain`` with alpha=0 and the HMC lane ``run_chain``
with alpha=1, a fixed step size and a fixed leapfrog count.  Both lanes
continue one chain state, in chunks of a fixed number of sweeps; every
chunk is timed on its own and checked at its end.
"""

from __future__ import annotations

import time
import traceback

import numpy as np

from checks import (
    directional_pair,
    divergent_sweeps,
    gradient_pair,
    gradient_violations,
    oracle_pairs,
    pair_violations,
    state_violations,
    trace_violations,
)
from problems import make_inputs
from sbdeconv.chain import SamplerConfig, init_state_from_prior, run_chain
from sbdeconv.gauss import RngStreams
from sbdeconv.hmc import DIVERGENCE_THRESHOLD
from sbdeconv.model import CorrelationSpec, HyperParams, LatticeSpec, SbdModel
from sbdeconv.oracle import MAX_DENSE_DIM

LANES = ("gibbs", "hmc")


def _untraced(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Bench:
    """Model, chain state and bookkeeping of one run on one workload."""

    def __init__(self, wl, seed, tracer=None):
        self.wl = wl
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.divergences = 0
        self.violations = []
        # seconds per sweep of every clean chunk, by (lane, traced)
        self.times = {(lane, traced): [] for lane in LANES for traced in (0, 1)}
        self.traced_chunks = []        # (run_chain span index, lane, sweeps)

    def note(self, what, messages):
        self.violations += [f"{what}: {msg}" for msg in messages]

    def setup(self):
        """Draw the inputs, then build the model and the initial state.

        Returns the seconds spent drawing the inputs, which are not part of
        the sampler's set-up.
        """
        wl = self.wl
        t0 = time.perf_counter()
        inputs = make_inputs(wl, self.seed)
        input_s = time.perf_counter() - t0
        self.d_obs = inputs["d_obs"]
        lattice = LatticeSpec.create(
            wl.n_v_obs, wl.n_h_obs, wl.blur_len, m_v=wl.m_v, m_h=wl.m_h,
            image_rows=wl.obs_rows, image_cols=[wl.obs_col])
        hp = HyperParams(blur=CorrelationSpec(wl.blur_phi, wl.blur_p))
        call = self.tracer.span if self.tracer else _untraced
        self.model = call("model.build", SbdModel.build, lattice, hp,
                          inputs["c_obs"], require_kron=True)
        self.state = call("chain.init", init_state_from_prior, self.model,
                          self.d_obs, RngStreams(self.seed))
        return input_s

    def check_state(self, what):
        self.note(what, state_violations(self.state, self.model, self.d_obs))

    def chunk(self, lane, sweeps, key, traced=0):
        """One run_chain call of ``sweeps`` sweeps on ``lane``, timed and checked.

        A chunk that raises, or whose traces or final state fail a check,
        counts all its sweeps as failed; otherwise each divergent HMC
        trajectory counts one.  Only clean chunks are timed, so an aborted
        trajectory cannot read as a fast one.
        """
        wl = self.wl
        chunk_seed = int(np.random.SeedSequence([self.seed, *key]).generate_state(1)[0])
        cfg = SamplerConfig(alpha=0.0 if lane == "gibbs" else 1.0,
                            iterations=sweeps, seed=chunk_seed,
                            hmc_steps=wl.hmc_steps,
                            hmc_step_size=wl.hmc_step_size, hmc_adapt=False)
        what = f"{lane} chunk {key}"
        self.attempted += sweeps
        call = _untraced
        if traced:
            self.tracer.lane = lane
            self.traced_chunks.append((len(self.tracer.spans), lane, sweeps))
            call = self.tracer.span
        before = len(self.violations)     # traced passes check every sweep
        t0 = time.perf_counter()
        try:
            out = call("chain.run_chain", run_chain, self.model, self.d_obs, cfg,
                       state=self.state)
        except Exception:  # a failed chunk is counted, and the run goes on
            self.failed += sweeps
            self.note(what, [traceback.format_exc(limit=3)])
            return
        elapsed = time.perf_counter() - t0
        divergent = divergent_sweeps(out.hmc_delta_h, DIVERGENCE_THRESHOLD)
        self.divergences += divergent
        self.note(what, trace_violations(out))
        self.check_state(what)
        if len(self.violations) > before:
            self.failed += sweeps
        elif divergent:
            self.failed += divergent
        else:
            self.times[lane, traced].append(elapsed / sweeps)

    def warm_up(self):
        """Untimed sweeps, so the chain leaves its prior draw and lazy caches fill."""
        self.chunk("gibbs", self.wl.warmup_sweeps, (0, 0))
        self.chunk("hmc", 1, (0, 1))

    def rounds(self, seconds, between_rounds=None):
        """Whole rounds of one chunk per lane until ``seconds`` have passed.

        With a tracer a round is an untraced and a traced pass, so both see
        the same stretch of the chain and of the machine's load.
        ``between_rounds``, if given, is called after each round with the
        seconds since the first began.
        """
        passes = (0, 1) if self.tracer else (0,)
        t_start = time.perf_counter()
        r = 0
        while True:
            r += 1
            for traced in passes:
                if traced:
                    self.tracer.install()
                try:
                    self.chunk("gibbs", self.wl.gibbs_chunk, (r, 0, traced), traced)
                    self.chunk("hmc", self.wl.hmc_chunk, (r, 1, traced), traced)
                finally:
                    if traced:
                        self.tracer.remove()
            elapsed = time.perf_counter() - t_start
            if between_rounds:
                between_rounds(elapsed)
            if elapsed >= seconds:
                return

    def final_checks(self):
        """Dense-oracle and finite-difference checks at the final state.

        Where the dense oracle is capped, the gradient is checked along one
        seeded random direction instead of every coordinate.
        """
        try:
            if self.model.lattice.n <= MAX_DENSE_DIM:
                self.note("dense oracle",
                          pair_violations(oracle_pairs(self.state, self.model)))
                grad, fd = gradient_pair(self.state, self.model)
                self.note("gradient", gradient_violations(grad, fd))
            else:
                gen = np.random.default_rng([self.seed, self.wl.blur_len])
                direction = gen.standard_normal(self.wl.blur_len)
                direction /= np.linalg.norm(direction)
                gv, fd, norm = directional_pair(self.state, self.model, direction)
                self.note("directional gradient",
                          gradient_violations(gv, fd, scale=norm))
        except Exception:  # reported as a failed check, not a crash
            self.note("final checks", [traceback.format_exc(limit=3)])
