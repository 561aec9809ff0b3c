"""The benchmark's three workloads and the inputs each one draws from a seed.

Inputs are simulated here with plain numpy, independently of the package, so
a change to the package's own simulation code never changes what the
sampler is given.  The image and the noise are stationary Gaussian fields
with correlation exp(-h/1.5) in each direction, drawn by circulant embedding
on a lattice twice the observed window and cropped to its centre; the blur
is a Gaussian bump with seeded height and width.  Only ``d_obs`` and
``c_obs`` reach the sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: values the simulated image, blur and noise are drawn around; they sit at
#: the prior means of the default hyperparameters
SIGMA_C2 = 0.002
ZETA = 0.05
FIELD_RANGE = 1.5


@dataclass(frozen=True)
class Workload:
    """Lattice, constraint mask, prior and lane settings of one workload."""

    name: str
    n_v_obs: int
    n_h_obs: int
    m_v: int | None          # None: the package's default padding
    m_h: int | None
    blur_len: int
    obs_rows: tuple           # constrained rows in the observed window
    obs_col: int              # the one constrained column
    blur_phi: float           # blur prior correlation range
    blur_p: float             # blur prior correlation smoothness
    hmc_steps: int
    hmc_step_size: float
    warmup_sweeps: int        # untimed Gibbs sweeps before the lanes
    gibbs_chunk: int          # sweeps per timed Gibbs run_chain call
    hmc_chunk: int            # sweeps per timed HMC run_chain call


WORKLOADS = {
    "desk": Workload(
        "desk", 6, 2, 2, 1, 6, (2, 3), 1, 1.5, 1.5,
        hmc_steps=5, hmc_step_size=0.01, warmup_sweeps=200,
        gibbs_chunk=50, hmc_chunk=10),
    "paper": Workload(
        "paper", 24, 6, None, None, 10, tuple(range(24)), 3, 2.0, 1.98,
        hmc_steps=40, hmc_step_size=0.01, warmup_sweeps=200,
        gibbs_chunk=25, hmc_chunk=1),
    "scale": Workload(
        "scale", 166, 25, 74, 25, 64, tuple(range(166)), 12, 2.0, 1.98,
        hmc_steps=3, hmc_step_size=2e-4, warmup_sweeps=20,
        gibbs_chunk=10, hmc_chunk=1),
}


def _cyclic_eigs(n, phi):
    j = np.arange(n)
    return np.fft.fft(np.exp(-np.minimum(j, n - j) / phi)).real


def stationary_field(rng, shape, variance, phi=FIELD_RANGE):
    """Zero-mean field with covariance variance * exp(-h_v/phi) exp(-h_h/phi)."""
    eig = np.outer(_cyclic_eigs(shape[0], phi), _cyclic_eigs(shape[1], phi))
    white = rng.standard_normal(shape)
    field = np.fft.ifft2(np.sqrt(np.maximum(eig, 0.0)) * np.fft.fft2(white)).real
    return np.sqrt(variance) * field


def make_inputs(wl: Workload, seed: int):
    """Observed data window ``d_obs`` and exact image values ``c_obs`` for ``seed``."""
    rng = np.random.default_rng([seed, len(wl.name), wl.n_v_obs, wl.blur_len])
    n_v, n_h = 2 * wl.n_v_obs, 2 * wl.n_h_obs
    image = stationary_field(rng, (n_v, n_h), SIGMA_C2)

    t = np.arange(wl.blur_len) - (wl.blur_len - 1) / 2.0
    height = rng.uniform(1.5, 3.0)
    width = max(wl.blur_len / 4.0, 0.5) * rng.uniform(0.8, 1.2)
    omega = height * np.exp(-0.5 * (t / width) ** 2)
    sigma_w2 = height ** 2

    # each column convolved with the blur; offsets run from -k//2 as on the
    # sampler's centred support
    shifts = np.arange(wl.blur_len) - wl.blur_len // 2
    signal = sum(w * np.roll(image, s, axis=0) for w, s in zip(omega, shifts))
    noise = stationary_field(rng, (n_v, n_h), SIGMA_C2 * sigma_w2 * ZETA)
    data = signal + noise

    r0, c0 = (n_v - wl.n_v_obs) // 2, (n_h - wl.n_h_obs) // 2
    window = (slice(r0, r0 + wl.n_v_obs), slice(c0, c0 + wl.n_h_obs))
    d_obs = data[window].copy()
    c_true = image[window]
    c_obs = c_true[list(wl.obs_rows), wl.obs_col].copy()
    return {"d_obs": d_obs, "c_obs": c_obs}
