"""Correctness checks the benchmark applies to the sampler's output.

Every check returns a list of violation messages; an empty list is a pass.
Checks that compare two computations take both results as arguments, and
the ``*_pairs`` helpers produce them, so a test can corrupt one side and see
the check fail.  No check compares against stored output of the sampler.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from sbdeconv.gibbs import blur_fc_params, image_fc_params
from sbdeconv.hmc import grad_potential, potential
from sbdeconv.model import log_posterior_unnorm
from sbdeconv.oracle import DenseModel, dense_marginal_potential, fd_gradient

#: constrained coordinates are overwritten, so they must hold exactly;
#: this bound only absorbs a rewrite that computes them instead
CONSTRAINT_ATOL = 1e-10
#: structured against dense oracle, relative to the largest reference entry
ORACLE_RTOL = 1e-8
#: analytic gradient against central differences, relative to the largest
#: difference quotient
FD_STEP = 1e-5
FD_RTOL = 1e-6


def state_violations(state, model, d_obs):
    """Exact pixels at c_obs, blur zero off its support, data at d_obs."""
    lat = model.lattice
    out = []
    px = lat.image_pixels
    if len(px):
        gap = np.abs(state.c[px[:, 0], px[:, 1]] - model.image.c_obs).max()
        if not gap <= CONSTRAINT_ATOL:
            out.append(f"constrained image pixel off c_obs by {gap:.3g}")
    off = np.abs(state.w_star[lat.blur_free]).max(initial=0.0)
    if not off <= CONSTRAINT_ATOL:
        out.append(f"blur off its support by {off:.3g}")
    if not np.array_equal(state.w_star[lat.blur_support], state.omega):
        out.append("w_star on the support differs from omega")
    gap = np.abs(state.d[np.ix_(lat.data_rows, lat.data_cols)] - d_obs).max()
    if not gap <= CONSTRAINT_ATOL:
        out.append(f"observed data node off d_obs by {gap:.3g}")
    lp = log_posterior_unnorm(state, model)
    if not np.isfinite(lp):
        out.append(f"log posterior not finite: {lp}")
    return out


def trace_violations(out):
    """Every recorded trace of a ChainOutput is finite."""
    names = ("omega", "sigma_c2", "sigma_w2", "zeta", "c_trace",
             "d_aux_mean", "d_aux_sd", "hmc_eps")
    return [f"trace {name} not finite" for name in names
            if not np.all(np.isfinite(getattr(out, name)))]


def divergent_sweeps(delta_h, threshold):
    """Trajectories hmc_update reports as divergent, read off their energy error.

    hmc_update marks a trajectory divergent exactly when its energy error is
    not finite or exceeds the divergence threshold in size.
    """
    delta_h = np.asarray(delta_h, dtype=float)
    return int(np.sum(~(np.abs(delta_h) <= threshold)))


def close_violations(name, got, ref, rtol, scale=None):
    """Largest absolute gap relative to ``scale``, by default the largest
    reference entry."""
    got, ref = np.asarray(got), np.asarray(ref)
    if scale is None:
        scale = np.abs(ref).max()
    err = np.abs(got - ref).max() / max(scale, np.finfo(float).tiny)
    return [] if err <= rtol else [f"{name}: relative error {err:.3g} > {rtol:g}"]


def oracle_pairs(state, model):
    """(structured, dense) results for the blur FC, the image FC and the potential.

    The FC parameters are compared as the mean and covariance of the
    unconstrained draw, before Kriging; the dense forms follow from the
    Gaussian conditioning formulas on explicit matrices.
    """
    lat = model.lattice
    dm = DenseModel(model, state)
    d = np.ravel(state.d, order="F")

    def solve(a, b):
        return scipy.linalg.solve(a, b, assume_a="pos")

    mu_hat, eig_cov = blur_fc_params(state, model)
    idx = np.arange(lat.n_v)
    base = np.fft.ifft(eig_cov).real
    sigma_w = state.sigma_w2 * dm.r_w
    cross = sigma_w @ dm.gamma.T
    inner = dm.gamma @ cross + dm.sigma_d
    blur_mean = (np.fft.ifft(mu_hat, norm="ortho").real,
                 cross @ solve(inner, d))
    blur_cov = (base[(idx[None, :] - idx[:, None]) % lat.n_v],
                sigma_w - cross @ solve(inner, cross.T))

    mean_hat, eig_grid = image_fc_params(state, model)
    flat = np.arange(lat.n)
    ri, rj = flat % lat.n_v, flat // lat.n_v
    base_i = np.fft.ifft2(eig_grid).real
    prior = state.sigma_c2 * dm.r_c
    cross_i = prior @ dm.w_full.T
    inner_i = dm.w_full @ cross_i + dm.sigma_d
    image_mean = (np.ravel(np.fft.ifft2(mean_hat, norm="ortho").real, order="F"),
                  cross_i @ solve(inner_i, d))
    image_cov = (base_i[(ri[:, None] - ri[None, :]) % lat.n_v,
                        (rj[:, None] - rj[None, :]) % lat.n_h],
                 prior - cross_i @ solve(inner_i, cross_i.T))

    u, _ = potential(state.omega, state, model)
    u_dense = dense_marginal_potential(state.omega, state, model)
    return {"blur_fc_mean": blur_mean, "blur_fc_cov": blur_cov,
            "image_fc_mean": image_mean, "image_fc_cov": image_cov,
            "potential": (u, u_dense)}


def pair_violations(pairs, rtol=ORACLE_RTOL):
    out = []
    for name, (got, ref) in pairs.items():
        out += close_violations(name, got, ref, rtol)
    return out


def _potential_fn(state, model):
    return lambda w: potential(w, state, model)[0]


def gradient_pair(state, model):
    """Analytic gradient and central differences of the potential, every coordinate."""
    _, ws = potential(state.omega, state, model)
    grad = grad_potential(state.omega, ws, state, model)
    return grad, fd_gradient(_potential_fn(state, model), state.omega, FD_STEP)


def directional_pair(state, model, direction):
    """Gradient along one unit direction, analytic and by central differences,
    plus the gradient norm that scales their gap."""
    u = _potential_fn(state, model)
    _, ws = potential(state.omega, state, model)
    grad = grad_potential(state.omega, ws, state, model)
    step = FD_STEP * direction
    fd = (u(state.omega + step) - u(state.omega - step)) / (2.0 * FD_STEP)
    return float(grad @ direction), float(fd), float(np.linalg.norm(grad))


def gradient_violations(grad, fd, scale=None, rtol=FD_RTOL):
    return close_violations("gradient vs finite differences", grad, fd, rtol,
                            scale)
