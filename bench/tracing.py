"""Spans and counters recorded from outside the sampler.

``Tracer.install`` replaces the public functions of each layer with timing
or counting wrappers at the names the calling modules look up at call time,
and ``Tracer.remove`` puts the originals back.  A span is (name, start,
end, parent); spans are kept in memory and written out once, when the run
ends.  numpy FFT and ``numpy.roll`` calls are counted, not spanned, and only
while a sweep is open.
"""

from __future__ import annotations

import csv
import time

import numpy as np
import scipy.linalg

import sbdeconv.chain
import sbdeconv.gauss
import sbdeconv.gibbs
import sbdeconv.hmc
import sbdeconv.model

SWEEP = "chain.gibbs_sweep"

#: (module, attribute, span name) of every timed layer function
SPANNED = (
    (sbdeconv.chain, "gibbs_sweep", SWEEP),
    (sbdeconv.gibbs, "sample_blur_fc", "gibbs.blur_fc"),
    (sbdeconv.gibbs, "sample_image_fc", "gibbs.image_fc"),
    (sbdeconv.gibbs, "sample_aux_data_fc", "gibbs.aux_fc"),
    (sbdeconv.gibbs, "sample_sigma_c", "gibbs.sigma_c_fc"),
    (sbdeconv.gibbs, "sample_sigma_w", "gibbs.sigma_w_fc"),
    (sbdeconv.gibbs, "sample_zeta", "gibbs.zeta_fc"),
    # gibbs_sweep imports hmc_update from the hmc module on every call
    (sbdeconv.hmc, "hmc_update", "hmc.update"),
    (sbdeconv.hmc, "potential", "hmc.potential"),
    (sbdeconv.hmc, "grad_potential", "hmc.grad"),
    (sbdeconv.model, "build_image_prior", "model.build_image_prior"),
)

#: (module, attribute, counter) of every counted function inside a sweep
COUNTED = (
    (sbdeconv.gibbs, "sum_squares_data", "sum_squares_data"),
    (np, "roll", "roll"),
) + tuple((np.fft, fn, "fft") for fn in (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft"))


class Tracer:
    """In-memory spans plus per-lane counters for one traced run."""

    def __init__(self):
        self.spans = []            # (name, start_ns, end_ns, parent index)
        self.stack = []
        self.lane = None           # "gibbs" or "hmc" while a lane runs
        self.in_sweep = False
        self.spd_depth = 0
        self.cho_calls = 0
        self.counts = {}           # (lane, counter) -> calls inside sweeps
        self.nugget_retries = 0
        self.hmc_results = []      # (accepted, divergent) per traced update
        self.after_sweep = None    # callable(state) run after each sweep
        self._saved = []

    # --- spans ---------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter_ns()

    def span(self, name, fn, *args, **kwargs):
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def count(self, name):
        if self.in_sweep:
            key = (self.lane, name)
            self.counts[key] = self.counts.get(key, 0) + 1

    # --- wrappers ------------------------------------------------------

    def _spanned(self, fn, name):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _sweep(self, fn):
        def wrapper(state, *args, **kwargs):
            self.in_sweep = True
            try:
                out = self.span(SWEEP, fn, state, *args, **kwargs)
            finally:
                self.in_sweep = False
            if self.after_sweep is not None:
                self.span("bench.check", self.after_sweep, state)
            return out
        return wrapper

    def _hmc_update(self, fn):
        def wrapper(*args, **kwargs):
            result = self.span("hmc.update", fn, *args, **kwargs)
            self.hmc_results.append((bool(result.accepted), bool(result.divergent)))
            return result
        return wrapper

    def _counted(self, fn, name):
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def _spd_factor(self, fn):
        # the first cho_factor call inside spd_factor is the factorization
        # itself; every further one is a nugget retry
        def wrapper(*args, **kwargs):
            self.count("spd_factor")
            outer, self.cho_calls = self.cho_calls, 0
            self.spd_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.spd_depth -= 1
                self.nugget_retries += max(self.cho_calls - 1, 0)
                self.cho_calls = outer
        return wrapper

    def _cho_factor(self, fn):
        def wrapper(*args, **kwargs):
            if self.spd_depth:
                self.cho_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every traced function; ``remove`` undoes it."""
        for owner, attr, name in SPANNED:
            fn = getattr(owner, attr)
            if name == SWEEP:
                wrapper = self._sweep(fn)
            elif name == "hmc.update":
                wrapper = self._hmc_update(fn)
            else:
                wrapper = self._spanned(fn, name)
            self._patch(owner, attr, wrapper)
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, self._counted(getattr(owner, attr), name))
        # model imports spd_factor by name; gauss.spd_solve looks it up in gauss
        spd = self._spd_factor(sbdeconv.gauss.spd_factor)
        self._patch(sbdeconv.gauss, "spd_factor", spd)
        self._patch(sbdeconv.model, "spd_factor", spd)
        self._patch(scipy.linalg, "cho_factor", self._cho_factor(scipy.linalg.cho_factor))

    def remove(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # --- output --------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_ns", "end_ns", "parent"))
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow((i, name, start, end, parent))
