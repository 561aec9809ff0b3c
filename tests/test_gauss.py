"""Conditional Gaussian machinery: dense formulas, Fourier sampling, Kriging."""

import numpy as np
import pytest

from sbdeconv.errors import ConstraintViolated, DimensionMismatch, NegativeEigenvalue
from sbdeconv.fourier import BccbMatrix, CirculantMatrix
from sbdeconv.gauss import (
    FourierGaussian,
    HardConstraint,
    RngStreams,
    condition_by_kriging,
    conditional_params,
    constrained_logdensity,
    krige,
    sample_fourier_gaussian,
)
from sbdeconv.model import CorrelationSpec, build_correlation

rng = np.random.default_rng(123)


def rdft(x):
    return np.fft.rfft(x, norm="ortho")


def random_spd(n, gen):
    a = gen.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestConditionalParams:
    def test_single_independent_coordinate(self):
        mu = np.zeros(4)
        mu_t, sigma_t = conditional_params(mu, np.eye(4), np.array([0]), None,
                                           np.array([3.0]))
        assert mu_t[0] == pytest.approx(3.0)
        np.testing.assert_allclose(mu_t[1:], 0.0, atol=1e-14)
        np.testing.assert_allclose(sigma_t[0, :], 0.0, atol=1e-14)
        np.testing.assert_allclose(sigma_t[:, 0], 0.0, atol=1e-14)
        np.testing.assert_allclose(sigma_t[1:, 1:], np.eye(3), atol=1e-14)

    def test_full_constraint(self):
        sigma = random_spd(5, rng)
        b = rng.standard_normal(5)
        mu_t, sigma_t = conditional_params(rng.standard_normal(5), sigma,
                                           np.arange(5), None, b)
        np.testing.assert_allclose(mu_t, b, atol=1e-10)
        np.testing.assert_allclose(sigma_t, 0.0, atol=1e-9)

    def test_matches_partitioned_formula(self):
        # long-hand partitioned-Gaussian oracle on a random 6-dim instance
        n, sel = 6, np.array([1, 4])
        free = np.setdiff1d(np.arange(n), sel)
        mu = rng.standard_normal(n)
        sigma = random_spd(n, rng)
        b = rng.standard_normal(2)
        mu_t, sigma_t = conditional_params(mu, sigma, sel, None, b)

        s_oo = sigma[np.ix_(sel, sel)]
        s_uo = sigma[np.ix_(free, sel)]
        gain = s_uo @ np.linalg.inv(s_oo)
        mu_u = mu[free] + gain @ (b - mu[sel])
        sigma_u = sigma[np.ix_(free, free)] - gain @ s_uo.T
        np.testing.assert_allclose(mu_t[free], mu_u, atol=1e-10)
        np.testing.assert_allclose(mu_t[sel], b, atol=1e-12)
        np.testing.assert_allclose(sigma_t[np.ix_(free, free)], sigma_u,
                                   atol=1e-10)
        np.testing.assert_allclose(sigma_t[np.ix_(sel, sel)], 0.0, atol=1e-10)

    def test_noisy_observation(self):
        # with innovation noise the result is ridge-like, still Eq-literal
        n = 4
        mu = np.zeros(n)
        sigma = random_spd(n, rng)
        a = rng.standard_normal((2, n))
        sigma_e = 0.5 * np.eye(2)
        y = rng.standard_normal(2)
        mu_t, sigma_t = conditional_params(mu, sigma, a, sigma_e, y)
        inner = np.linalg.inv(a @ sigma @ a.T + sigma_e)
        np.testing.assert_allclose(mu_t, sigma @ a.T @ inner @ y, atol=1e-10)
        np.testing.assert_allclose(
            sigma_t, sigma - sigma @ a.T @ inner @ a @ sigma, atol=1e-10)


class TestFourierGaussianSampling:
    def test_zero_eigenvalues_return_mean(self):
        mean = rng.standard_normal(8)
        g = FourierGaussian(rdft(mean), np.zeros(5), 8)
        out = sample_fourier_gaussian(g, np.random.default_rng(0))
        np.testing.assert_allclose(out, mean, atol=1e-12)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NegativeEigenvalue):
            FourierGaussian(np.zeros(4, dtype=complex),
                            np.array([1.0, -0.5, 1.0, 0.5]), 6)

    def test_mean_recovery_monte_carlo(self):
        n, draws = 8, 200_000
        corr = build_correlation(n, CorrelationSpec(1.5, 1.0))
        mean = rng.standard_normal(n)
        g = FourierGaussian(rdft(mean), corr.eigs.real[:n // 2 + 1], n)
        xs = sample_fourier_gaussian(g, np.random.default_rng(42), size=draws)
        marginal_sd = np.sqrt(corr.base[0])
        bound = 4.0 * marginal_sd / np.sqrt(draws)
        assert np.abs(xs.mean(axis=0) - mean).max() < bound

    def test_lag_one_circular_covariance(self):
        n, draws = 8, 200_000
        corr = build_correlation(n, CorrelationSpec(1.5, 1.0))
        g = FourierGaussian(np.zeros(n // 2 + 1, dtype=complex),
                            corr.eigs.real[:n // 2 + 1], n)
        xs = sample_fourier_gaussian(g, np.random.default_rng(7), size=draws)
        lag1 = np.mean(xs * np.roll(xs, 1, axis=1))
        assert abs(lag1 - corr.base[1]) < 5e-3

    def test_marginal_variance(self):
        n, draws = 8, 200_000
        corr = build_correlation(n, CorrelationSpec(1.5, 1.0))
        g = FourierGaussian(np.zeros(n // 2 + 1, dtype=complex),
                            corr.eigs.real[:n // 2 + 1], n)
        xs = sample_fourier_gaussian(g, np.random.default_rng(9), size=draws)
        assert abs(np.mean(xs**2) - corr.base[0]) < 5e-3

    def test_2d_field_shape_and_scale(self):
        r_v = build_correlation(6, CorrelationSpec(1.5, 1.0))
        r_h = build_correlation(4, CorrelationSpec(1.5, 1.0))
        theta = np.outer(r_v.eigs.real, r_h.eigs.real)
        g = FourierGaussian(np.zeros((4, 4), dtype=complex), theta[:4], 6)
        xs = sample_fourier_gaussian(g, np.random.default_rng(1), size=50_000)
        assert xs.shape == (50_000, 6, 4)
        assert abs(np.mean(xs**2) - 1.0) < 2e-2


class UnitNormals:
    """Stands in for a generator: every normal is 0 except entry ``index``
    (none for ``index=None``), so a draw is one column of the linear map
    from the normals to the field, plus the mean."""

    def __init__(self, index=None):
        self.index = index

    def standard_normal(self, shape):
        z = np.zeros(shape)
        if self.index is not None:
            z.flat[self.index] = 1.0
        return z


def symmetric_eigs(shape, gen):
    """Positive eigenvalues of a real symmetric circulant or BCCB: even
    under (l, j) -> (-l, -j), not separable."""
    eig = gen.uniform(0.1, 2.0, shape)
    flipped = eig[(-np.arange(shape[0])) % shape[0]]
    if len(shape) == 2:
        flipped = flipped[:, (-np.arange(shape[1])) % shape[1]]
    return 0.5 * (eig + flipped)


class TestHalfSpectrumDraw:
    """The half-spectrum draw is exact: its linear map from the normals has
    Gram matrix equal to the covariance, and its offset is the mean."""

    @pytest.mark.parametrize("shape", [(6,), (8,), (7,), (6, 1), (6, 2), (6, 3),
                                       (6, 4), (8, 1), (8, 2), (8, 3), (8, 4)])
    def test_covariance_and_mean_exact(self, shape):
        gen = np.random.default_rng(sum(shape))
        n = shape[0]
        rows = n // 2 + 1
        eig = symmetric_eigs(shape, gen)
        mean = gen.standard_normal(shape)
        if len(shape) == 1:
            mean_hat = np.fft.rfft(mean, norm="ortho")
            dense = CirculantMatrix.from_eigs(eig).dense()
        else:
            mean_hat = np.fft.rfft2(mean, axes=(1, 0), norm="ortho")
            dense = BccbMatrix.from_eigs(eig).dense()
        g = FourierGaussian(mean_hat, eig[:rows], n)

        offset = sample_fourier_gaussian(g, UnitNormals())
        np.testing.assert_allclose(offset, mean, rtol=0, atol=1e-12)
        cols = np.array([np.ravel(sample_fourier_gaussian(g, UnitNormals(i)) - offset,
                                  order="F")
                         for i in range(2 * mean_hat.size)])
        gram = cols.T @ cols
        assert np.abs(gram - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_full_spectrum_rejected(self):
        # a full spectrum of length 8 is refused for a field of length 8, but
        # it has the shape of the half spectrum of a field of length 14
        eig = build_correlation(8, CorrelationSpec(1.5, 1.0)).eigs.real
        full = np.fft.fft(rng.standard_normal(8), norm="ortho")
        with pytest.raises(DimensionMismatch):
            FourierGaussian(full, eig, 8)
        with pytest.raises(DimensionMismatch):
            krige(np.zeros(8), eig, np.array([1]), np.ones(1), np.zeros(1))
        assert FourierGaussian(full, eig, 14).mean_hat.shape == (8,)


class TestConditionByKriging:
    def test_empty_constraint(self):
        x = rng.standard_normal(6)
        hc = HardConstraint(np.empty(0, dtype=int), np.empty(0))
        np.testing.assert_array_equal(condition_by_kriging(x, np.zeros((6, 0)), hc), x)

    def test_already_satisfied(self):
        sigma = random_spd(6, rng)
        sel = np.array([0, 3])
        x = rng.standard_normal(6)
        hc = HardConstraint(sel, x[sel].copy())
        out = condition_by_kriging(x, sigma[:, sel], hc)
        np.testing.assert_allclose(out, x, atol=1e-10)

    def test_idempotence(self):
        sigma = random_spd(6, rng)
        sel = np.array([1, 4])
        hc = HardConstraint(sel, rng.standard_normal(2))
        x = rng.standard_normal(6)
        once = condition_by_kriging(x, sigma[:, sel], hc)
        twice = condition_by_kriging(once, sigma[:, sel], hc)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_affine_superposition(self):
        sigma = random_spd(5, rng)
        sel = np.array([2])
        hc0 = HardConstraint(sel, np.zeros(1))
        x, y = rng.standard_normal((2, 5))
        lhs = condition_by_kriging(x + y, sigma[:, sel], hc0) \
            + condition_by_kriging(np.zeros(5), sigma[:, sel], hc0)
        rhs = condition_by_kriging(x, sigma[:, sel], hc0) \
            + condition_by_kriging(y, sigma[:, sel], hc0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_distribution_matches_conditional_params(self):
        n, draws = 6, 200_000
        gen = np.random.default_rng(99)
        sigma = random_spd(n, gen)
        mu = gen.standard_normal(n)
        sel = np.array([0, 4])
        b = gen.standard_normal(2)
        hc = HardConstraint(sel, b)

        chol = np.linalg.cholesky(sigma)
        xs = mu + gen.standard_normal((draws, n)) @ chol.T
        corrected = condition_by_kriging(xs, sigma[:, sel], hc)
        mu_t, sigma_t = conditional_params(mu, sigma, sel, None, b)

        sd = np.sqrt(np.maximum(np.diag(sigma_t), 1e-12))
        assert np.abs(corrected.mean(axis=0) - mu_t).max() < \
            4 * sd.max() / np.sqrt(draws) + 1e-9
        emp_cov = np.cov(corrected.T)
        var_bound = 4 * (np.outer(sd, sd) + 1e-3) / np.sqrt(draws)
        assert np.all(np.abs(emp_cov - sigma_t) < var_bound + 1e-9)

    def test_constraints_exact(self):
        sigma = random_spd(8, rng)
        sel = np.array([1, 5, 6])
        b = rng.standard_normal(3)
        hc = HardConstraint(sel, b)
        xs = rng.standard_normal((10_000, 8))
        out = condition_by_kriging(xs, sigma[:, sel], hc)
        assert np.abs(out[:, sel] - b).max() <= 1e-10


class TestConstrainedLogdensity:
    def test_no_constraints_is_plain_gaussian(self):
        n = 4
        sigma = random_spd(n, rng)
        mu = rng.standard_normal(n)
        x = rng.standard_normal(n)
        got = constrained_logdensity(x, mu, sigma, np.arange(n))
        dev = x - mu
        expected = -0.5 * (n * np.log(2 * np.pi)
                           + np.linalg.slogdet(sigma)[1]
                           + dev @ np.linalg.solve(sigma, dev))
        assert got == pytest.approx(expected, abs=1e-10)

    def test_matches_pseudo_determinant_form(self):
        # SVD-based pseudo-inverse/pseudo-determinant oracle on 5 dims, 2 constraints
        n, sel = 5, np.array([1, 3])
        free = np.setdiff1d(np.arange(n), sel)
        sigma = random_spd(n, rng)
        mu = rng.standard_normal(n)
        b = rng.standard_normal(2)
        mu_t, sigma_t = conditional_params(mu, sigma, sel, None, b)

        x = mu_t + 0.1 * rng.standard_normal(n)
        x[sel] = b
        got = constrained_logdensity(x, mu_t, sigma_t, free)

        u, s, _ = np.linalg.svd(sigma_t)
        keep = s > 1e-10 * s.max()
        pseudo_logdet = np.log(s[keep]).sum()
        pinv = (u[:, keep] / s[keep]) @ u[:, keep].T
        dev = x - mu_t
        expected = -0.5 * (free.size * np.log(2 * np.pi) + pseudo_logdet
                           + dev @ pinv @ dev)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_violation_raises(self):
        n = 4
        sigma = random_spd(n, rng)
        mu_t, sigma_t = conditional_params(np.zeros(n), sigma, np.array([0]),
                                           None, np.array([1.0]))
        x = np.zeros(n)
        x[0] = 1.5   # off the constraint
        with pytest.raises(ConstraintViolated):
            constrained_logdensity(x, mu_t, sigma_t, np.arange(1, n))


class TestRngStreams:
    def test_streams_independent_and_reproducible(self):
        a, b = RngStreams(7), RngStreams(7)
        assert a.blur.random() == b.blur.random()
        assert a.image.random() == b.image.random()

    def test_different_seeds_differ(self):
        assert RngStreams(1).blur.random() != RngStreams(2).blur.random()

    def test_derive_children_distinct(self):
        assert RngStreams.derive(5, 0) != RngStreams.derive(5, 1)
