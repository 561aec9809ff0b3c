"""Chain diagnostics: ESS, MSJD, RMSE, summary quantiles.

The ESS uses the biased (divide-by-N) autocorrelation estimator with a hard
lag cutoff and no truncation at the first negative term; negative estimates
are summed as-is.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateTrace, DimensionMismatch


def autocorrelation(values, max_lag):
    """Sample autocorrelations rho_1..rho_max_lag (biased, mean-centered)."""
    x = np.asarray(values, dtype=float).ravel()
    n = x.size
    if max_lag >= n:
        raise DimensionMismatch("max_lag must be smaller than the trace length")
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0:
        raise DegenerateTrace("constant trace has no autocorrelation")
    nfft = 1
    while nfft < 2 * n:
        nfft *= 2
    fx = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(fx * np.conj(fx), nfft)[: max_lag + 1] / n
    return acov[1:] / acov[0]


def ess(values, max_lag=1500):
    """Effective sample size N / (1 + 2 sum rho_j), clamped to (0, N]."""
    x = np.asarray(values, dtype=float).ravel()
    n = x.size
    lag = min(max_lag, n - 1)
    rho = autocorrelation(x, lag)
    denom = 1.0 + 2.0 * rho.sum()
    if denom <= 0 or n / denom > n:
        return float(n)
    return float(n / denom)


def msjd(values):
    """Mean squared jumping distance with divisor N over the N-1 jumps."""
    x = np.asarray(values, dtype=float).ravel()
    if x.size < 2:
        raise DimensionMismatch("MSJD needs at least two samples")
    return float(np.sum(np.diff(x) ** 2) / x.size)


def rmse(values, truth):
    """Root mean squared deviation of a trace from the known true value."""
    x = np.asarray(values, dtype=float).ravel()
    if x.size < 1:
        raise DimensionMismatch("RMSE needs at least one sample")
    return float(np.sqrt(np.sum((x - truth) ** 2) / x.size))


def quantile_summary(values, qs=(0.025, 0.5, 0.975)):
    x = np.asarray(values, dtype=float).ravel()
    return {q: float(np.quantile(x, q)) for q in qs}


def sign_changes(values):
    """Number of sign flips along a trace; zeros are carried through."""
    s = np.sign(np.asarray(values, dtype=float).ravel())
    s = s[s != 0]
    if s.size < 2:
        return 0
    return int(np.sum(s[1:] != s[:-1]))


# --- two-sample energy distance ------------------------------------------

def _as_samples(x):
    x = np.asarray(x, dtype=float)
    return x.reshape(-1, 1) if x.ndim == 1 else x


def energy_distance(x, y):
    """Energy distance statistic between two multivariate samples."""
    # imported here to keep scipy.spatial out of ``import sbdeconv``
    from scipy.spatial.distance import cdist
    x, y = _as_samples(x), _as_samples(y)
    dxy = cdist(x, y).mean()
    dxx = cdist(x, x).mean()
    dyy = cdist(y, y).mean()
    return 2 * dxy - dxx - dyy


def energy_distance_test(x, y, n_perm=199, rng=None, block=1):
    """Permutation test of equal distribution; returns (statistic, p-value).

    For Markov-chain draws pass ``block`` > 1: contiguous blocks of that
    length are permuted as units, so within-chain dependence shorter than a
    block is preserved under the null and the test stays honestly sized.
    """
    from scipy.spatial.distance import cdist
    rng = rng if rng is not None else np.random.default_rng(0)
    x, y = _as_samples(x), _as_samples(y)
    if block > 1:
        x = x[: (len(x) // block) * block]
        y = y[: (len(y) // block) * block]
    pooled = np.vstack([x, y])
    n, m = len(x), len(y)
    dist = cdist(pooled, pooled)
    total = dist.sum()

    def stat(idx_x, idx_y):
        # cross-block sum follows from the constant pooled total
        sxx = dist[np.ix_(idx_x, idx_x)].sum()
        syy = dist[np.ix_(idx_y, idx_y)].sum()
        sxy = 0.5 * (total - sxx - syy)
        e = 2 * sxy / (n * m) - sxx / n**2 - syy / m**2
        return (n * m / (n + m)) * e

    observed = stat(np.arange(n), np.arange(n, n + m))
    blocks = np.arange(n + m).reshape(-1, block) if block > 1 else \
        np.arange(n + m).reshape(-1, 1)
    n_blocks_x = n // block if block > 1 else n
    count = 0
    order = np.arange(len(blocks))
    for _ in range(n_perm):
        rng.shuffle(order)
        idx_x = blocks[order[:n_blocks_x]].ravel()
        idx_y = blocks[order[n_blocks_x:]].ravel()
        if stat(idx_x, idx_y) >= observed:
            count += 1
    pval = (count + 1) / (n_perm + 1)
    return observed, pval
