"""Conditional Gaussian machinery.

Dense conditional parameters, Fourier-domain sampling of stationary fields,
conditioning by Kriging, and evaluation of singular constrained densities.
``krige`` is the one Kriging step the samplers use: for a circulant or BCCB
covariance the correction is one FFT pair.  ``condition_by_kriging`` is its
dense reference on explicit covariance columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConstraintViolated,
    DimensionMismatch,
    IllConditioned,
    NegativeEigenvalue,
    SingularConstraintGram,
    SingularInnovation,
)

#: eigenvalues of a covariance more negative than -NEG_EIG_RTOL * max are rejected
NEG_EIG_RTOL = 1e-10


def spd_factor(mat):
    """Cholesky with one nugget retry.

    On factorization failure a nugget of 1e-10 * trace/n is added once; the
    near-singular small solves come from long-range correlation matrices.
    """
    mat = np.asarray(mat, dtype=float)
    try:
        return scipy.linalg.cho_factor(mat, lower=True)
    except scipy.linalg.LinAlgError:
        nugget = 1e-10 * np.trace(mat) / mat.shape[0]
        try:
            return scipy.linalg.cho_factor(
                mat + nugget * np.eye(mat.shape[0]), lower=True
            )
        except scipy.linalg.LinAlgError as exc:
            raise IllConditioned("matrix not factorizable after nugget retry") from exc


def spd_solve(mat, rhs):
    return scipy.linalg.cho_solve(spd_factor(mat), rhs)


@dataclass(frozen=True)
class HardConstraint:
    """Hard linear constraints A x = b with A a coordinate selection matrix."""

    selector: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        sel = np.asarray(self.selector, dtype=int)
        val = np.asarray(self.values, dtype=float)
        if sel.ndim != 1 or val.ndim != 1 or sel.size != val.size:
            raise DimensionMismatch("selector and values must be equal-length vectors")
        if sel.size and (np.any(np.diff(sel) <= 0) or sel[0] < 0):
            raise DimensionMismatch("selector indices must be strictly increasing and nonnegative")
        object.__setattr__(self, "selector", sel)
        object.__setattr__(self, "values", val)

    @property
    def size(self):
        return self.selector.size


@dataclass(frozen=True)
class FourierGaussian:
    """Gaussian field in the Fourier domain: DFT'd mean plus covariance eigenvalues.

    ``mean_hat`` is the unitary DFT (1-d) or DFT2 (2-d grid) of the mean;
    ``eig_cov`` the matching grid of real covariance eigenvalues.
    """

    mean_hat: np.ndarray
    eig_cov: np.ndarray

    def __post_init__(self):
        mean_hat = np.asarray(self.mean_hat, dtype=complex)
        eig = np.asarray(self.eig_cov)
        if np.iscomplexobj(eig):
            if np.abs(eig.imag).max(initial=0.0) > NEG_EIG_RTOL * max(
                np.abs(eig).max(initial=0.0), 1.0
            ):
                raise NegativeEigenvalue("covariance eigenvalues must be real")
            eig = eig.real
        eig = np.asarray(eig, dtype=float)
        if eig.shape != mean_hat.shape:
            raise DimensionMismatch("mean and eigenvalue shapes differ")
        floor = -NEG_EIG_RTOL * max(eig.max(initial=0.0), 1e-300)
        if eig.min(initial=0.0) < floor:
            raise NegativeEigenvalue(
                f"covariance eigenvalue {eig.min():g} below tolerance"
            )
        object.__setattr__(self, "mean_hat", mean_hat)
        object.__setattr__(self, "eig_cov", np.maximum(eig, 0.0))


def sample_fourier_gaussian(g: FourierGaussian, rng, size=None):
    """Draw real fields from a stationary Gaussian given in the Fourier domain.

    Draws z with independent unit-variance real and imaginary parts, forms
    mean_hat + sqrt(eig_cov) * z and returns the real part of the unitary
    inverse transform.  Under the unitary convention this has covariance
    exactly equal to the circulant/BCCB matrix with those eigenvalues; no
    additional scaling constant enters.
    """
    shape = g.mean_hat.shape
    batch = () if size is None else (int(size),)
    z = rng.standard_normal(batch + shape) + 1j * rng.standard_normal(batch + shape)
    xhat = g.mean_hat + np.sqrt(g.eig_cov) * z
    axes = tuple(range(-g.mean_hat.ndim, 0))
    return np.fft.ifftn(xhat, axes=axes, norm="ortho").real


def conditional_params(mu, sigma, a, sigma_e, y):
    """Gaussian conditional mean and covariance given A x + e = y.

    ``a`` is either a selection index vector or a dense constraint matrix;
    ``sigma_e`` the innovation covariance (0 or None for hard constraints).
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    n = mu.size
    a = np.asarray(a)
    if a.ndim == 1:
        sel = a.astype(int)
        a_mat = np.zeros((sel.size, n))
        a_mat[np.arange(sel.size), sel] = 1.0
    else:
        a_mat = a.astype(float)
    k = a_mat.shape[0]
    if sigma_e is None:
        sigma_e = np.zeros((k, k))
    sigma_e = np.asarray(sigma_e, dtype=float)
    if np.ndim(sigma_e) == 0:
        sigma_e = float(sigma_e) * np.eye(k)

    cross = sigma @ a_mat.T
    inner = a_mat @ cross + sigma_e
    inner = 0.5 * (inner + inner.T)
    try:
        gain = spd_solve(inner, cross.T).T          # Sigma A^T inner^{-1}
    except IllConditioned as exc:
        raise SingularInnovation(str(exc)) from exc
    y = np.asarray(y, dtype=float)
    mu_t = mu + gain @ (y - a_mat @ mu)
    sigma_t = sigma - gain @ cross.T
    return mu_t, 0.5 * (sigma_t + sigma_t.T)


def condition_by_kriging(x, sigma_cols, constraint: HardConstraint):
    """Correct an unconstrained sample so the selected coordinates hit b exactly.

    ``sigma_cols`` holds Sigma A^T, the covariance columns at the constrained
    coordinates; the constraint Gram A Sigma A^T is its selected row block.
    Supports batched samples in the leading axes of ``x``.
    """
    x = np.asarray(x, dtype=float)
    if constraint.size == 0:
        return x.copy()
    sel = constraint.selector
    gram = sigma_cols[sel, :]
    gram = 0.5 * (gram + gram.T)
    resid = x[..., sel] - constraint.values
    try:
        weights = spd_solve(gram, resid.reshape(-1, sel.size).T)
    except IllConditioned as exc:
        raise SingularConstraintGram(str(exc)) from exc
    corr = (sigma_cols @ weights).T.reshape(x.shape)
    out = x - corr
    out[..., sel] = constraint.values
    return out


def krige(x, eig_cov, index, weights, values):
    """Correct a stationary draw so the entries ``x[index]`` hit ``values`` exactly.

    ``x`` is a draw on a column or a lattice grid and ``eig_cov`` the
    eigenvalue grid (``fftn`` of the base) of its circulant or BCCB
    covariance Sigma.  ``weights`` solve the Gram of Sigma at ``index`` for
    the residual ``x[index] - values``; a common scale of Sigma cancels.
    The correction Sigma A^T weights is Sigma applied to the weights
    embedded on the lattice, so it costs one FFT pair (Rue & Held 2005,
    section 2.3.3).
    """
    out = np.array(x, dtype=float)
    if np.size(weights) == 0:
        return out
    embed = np.zeros_like(out)
    embed[index] = weights
    out -= np.fft.ifftn(eig_cov * np.fft.fftn(embed)).real
    out[index] = values
    return out


def constrained_logdensity(x_star, mu_tilde, sigma_tilde, free_selector):
    """Log density of a hard-constrained Gaussian, via its free-coordinate marginal.

    Equals the pseudo-determinant/pseudo-inverse form of the singular density
    evaluated at the full vector.
    """
    x_star = np.asarray(x_star, dtype=float)
    mu_tilde = np.asarray(mu_tilde, dtype=float)
    free = np.asarray(free_selector, dtype=int)
    n = x_star.size
    fixed = np.setdiff1d(np.arange(n), free)
    if fixed.size:
        gap = np.abs(x_star[fixed] - mu_tilde[fixed]).max()
        if gap > 1e-8:
            raise ConstraintViolated(f"constrained coordinate off by {gap:g}")
    if free.size == 0:
        return 0.0
    dev = x_star[free] - mu_tilde[free]
    cov = np.asarray(sigma_tilde, dtype=float)[np.ix_(free, free)]
    factor = spd_factor(cov)
    logdet = 2.0 * np.log(np.diag(factor[0])).sum()
    quad = dev @ scipy.linalg.cho_solve(factor, dev)
    return -0.5 * (free.size * np.log(2.0 * np.pi) + logdet + quad)


class RngStreams:
    """Seeded counter-based generators, one independent stream per parameter block.

    Philox streams derived from a single seed make Gibbs and HMC runs
    bit-reproducible; independent chains should use different seeds or
    ``derive``d child seeds.
    """

    BLOCKS = (
        "blur", "image", "data", "sigma_c", "sigma_w", "zeta",
        "momentum", "accept", "mix", "init", "sim",
    )

    def __init__(self, seed):
        self.seed = int(seed)
        children = np.random.SeedSequence(self.seed).spawn(len(self.BLOCKS))
        self._gens = {
            name: np.random.Generator(np.random.Philox(child))
            for name, child in zip(self.BLOCKS, children)
        }

    def __getattr__(self, name):
        try:
            return self._gens[name]
        except KeyError:
            raise AttributeError(name) from None

    @staticmethod
    def derive(seed, index):
        """Child seed for worker ``index``, independent of all other children."""
        child = np.random.SeedSequence(int(seed), spawn_key=(int(index),))
        return int(child.generate_state(1, dtype=np.uint64)[0])
