"""ESS, MSJD, RMSE, and the two-sample energy test."""

import numpy as np
import pytest

from sbdeconv.diagnostics import (
    autocorrelation,
    energy_distance,
    energy_distance_test,
    ess,
    msjd,
    quantile_summary,
    rmse,
    sign_changes,
)
from sbdeconv.errors import DegenerateTrace, DimensionMismatch


class TestEss:
    def test_iid_normal(self):
        x = np.random.default_rng(0).standard_normal(50_000)
        ratio = ess(x, max_lag=1500) / len(x)
        assert 0.9 <= ratio <= 1.1

    def test_ar1_analytic(self):
        # ESS/N for AR(1) with coefficient r is (1-r)/(1+r)
        r, n = 0.9, 200_000
        gen = np.random.default_rng(1)
        x = np.empty(n)
        x[0] = gen.standard_normal()
        innov = gen.standard_normal(n) * np.sqrt(1 - r * r)
        for t in range(1, n):
            x[t] = r * x[t - 1] + innov[t]
        ratio = ess(x, max_lag=1500) / n
        assert abs(ratio - 1 / 19) / (1 / 19) < 0.20

    def test_constant_trace(self):
        with pytest.raises(DegenerateTrace):
            ess(np.ones(100), max_lag=10)

    def test_affine_invariance(self):
        x = np.random.default_rng(2).standard_normal(5000)
        a = ess(x, max_lag=200)
        b = ess(3.0 * x - 7.0, max_lag=200)
        assert a == pytest.approx(b, rel=1e-10)

    def test_clamped_to_n(self):
        # strongly negatively correlated chain pushes the denominator below 1
        x = np.empty(2000)
        x[::2], x[1::2] = 1.0, -1.0
        x += 1e-3 * np.random.default_rng(3).standard_normal(2000)
        assert ess(x, max_lag=100) == len(x)

    def test_max_lag_bound(self):
        with pytest.raises(DimensionMismatch):
            autocorrelation(np.arange(10.0), max_lag=10)


class TestMsjd:
    def test_constant(self):
        assert msjd(np.full(100, 2.5)) == 0.0

    def test_alternating(self):
        n = 10_000
        x = np.empty(n)
        x[::2], x[1::2] = 1.0, -1.0
        assert msjd(x) == pytest.approx(4.0 * (n - 1) / n)

    def test_matches_brute_force(self):
        x = np.random.default_rng(4).standard_normal(997)
        jumps = np.array([(x[i + 1] - x[i]) ** 2 for i in range(len(x) - 1)])
        assert msjd(x) == np.sum(jumps) / len(x)

    def test_quadratic_scaling(self):
        x = np.random.default_rng(5).standard_normal(500)
        assert msjd(3.0 * x) == pytest.approx(9.0 * msjd(x), rel=1e-12)


class TestRmse:
    def test_exact_trace(self):
        assert rmse(np.full(50, 1.23), 1.23) == 0.0

    def test_single_offset_sample(self):
        assert rmse(np.array([5.0]), 3.0) == pytest.approx(2.0)

    def test_matches_brute_force(self):
        x = np.random.default_rng(6).standard_normal(641)
        devs = np.array([(v - 0.4) ** 2 for v in x])
        assert rmse(x, 0.4) == np.sqrt(np.sum(devs) / len(x))


class TestHelpers:
    def test_quantile_summary(self):
        q = quantile_summary(np.arange(101.0))
        assert q[0.5] == 50.0

    def test_sign_changes(self):
        assert sign_changes([1, 1, -1, -1, 1]) == 2
        assert sign_changes([1, 0, -1]) == 1
        assert sign_changes(np.ones(10)) == 0


class TestEnergyDistance:
    def test_same_distribution_accepted(self):
        gen = np.random.default_rng(7)
        x = gen.standard_normal((400, 3))
        y = gen.standard_normal((400, 3))
        _, p = energy_distance_test(x, y, n_perm=199,
                                    rng=np.random.default_rng(0))
        assert p > 0.01

    def test_shifted_distribution_rejected(self):
        gen = np.random.default_rng(8)
        x = gen.standard_normal((400, 3))
        y = gen.standard_normal((400, 3)) + 0.5
        stat, p = energy_distance_test(x, y, n_perm=199,
                                       rng=np.random.default_rng(0))
        assert p <= 0.01 and stat > 0

    def test_statistic_nonnegative_for_identical(self):
        x = np.random.default_rng(9).standard_normal((100, 2))
        assert energy_distance(x, x) == pytest.approx(0.0, abs=1e-12)
