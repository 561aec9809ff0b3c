"""Hierarchical model pieces: correlations, priors, lattice, log posterior."""

import numpy as np
import pytest

from sbdeconv.errors import (
    DimensionMismatch,
    MaskNotKronecker,
    NonPositiveVariance,
    OddLattice,
)
from sbdeconv.gauss import conditional_params
from sbdeconv.model import (
    CorrelationSpec,
    HyperParams,
    LatticeSpec,
    ModelState,
    SbdModel,
    build_blur_prior,
    build_correlation,
    build_image_prior,
    build_noise_model,
    embed_blur,
    ig_logpdf,
    log_posterior_unnorm,
)

rng = np.random.default_rng(321)

DESK_HP = HyperParams(blur=CorrelationSpec(1.5, 1.5))


def desk_lattice(image_rows=(1, 3), image_cols=(1,)):
    return LatticeSpec.create(6, 2, blur_len=4, m_v=2, m_h=1,
                              image_rows=image_rows, image_cols=image_cols)


def random_state(model, gen, scale_c=0.05, scale_d=0.1):
    lat = model.lattice
    omega = gen.standard_normal(lat.blur_len)
    c = gen.standard_normal((lat.n_v, lat.n_h)) * scale_c
    px = lat.image_pixels
    if len(px):
        c[px[:, 0], px[:, 1]] = model.image.c_obs
    return ModelState(
        omega=omega, w_star=embed_blur(omega, lat), c=c,
        d=gen.standard_normal((lat.n_v, lat.n_h)) * scale_d,
        sigma_c2=0.002, sigma_w2=3.0, zeta=0.15, psi=model.hp.psi,
    )


class TestCorrelation:
    def test_range_collapse(self):
        c = build_correlation(8, CorrelationSpec(1e-6, 1.0))
        assert c.base[0] == pytest.approx(1.0)
        assert np.abs(c.base[1:]).max() < 1e-12

    def test_direct_formula(self):
        c = build_correlation(8, CorrelationSpec(1.5, 1.0))
        assert c.base[1] == pytest.approx(np.exp(-2.0 / 3.0))
        # great-circle symmetry
        np.testing.assert_allclose(c.base[1:], c.base[1:][::-1], atol=1e-15)

    def test_eigs_match_dense(self):
        c = build_correlation(12, CorrelationSpec(1.5, 1.0))
        dense = np.linalg.eigvalsh(c.dense().real)
        np.testing.assert_allclose(np.sort(c.eigs.real), np.sort(dense),
                                   atol=1e-10)
        assert np.abs(c.eigs.imag).max() < 1e-12


class TestBlurPrior:
    def test_single_free_coordinate(self):
        # k = n_v - 1 leaves one constrained coordinate, one zero row/col
        lat = LatticeSpec.create(6, 1, blur_len=7, m_v=2, m_h=0)
        prior = build_blur_prior(lat, DESK_HP)
        zero_rows = np.where(np.abs(prior.r_w_tilde).max(axis=1) < 1e-10)[0]
        assert len(zero_rows) == 1
        assert zero_rows[0] == lat.blur_free[0]

    def test_matches_conditional_params_oracle(self):
        # configuration used by the blur studies: k=10, phi=2, p=1.98 on 24 rows
        lat = LatticeSpec.create(12, 1, blur_len=10, m_v=12, m_h=0)
        assert lat.n_v == 24
        hp = HyperParams()
        prior = build_blur_prior(lat, hp)
        r_dense = build_correlation(24, hp.blur).dense().real
        _, sigma_t = conditional_params(np.zeros(24), r_dense, lat.blur_free,
                                        None, np.zeros(len(lat.blur_free)))
        np.testing.assert_allclose(prior.r_w_tilde, sigma_t, atol=1e-9)
        np.testing.assert_allclose(
            prior.r_omega, sigma_t[np.ix_(lat.blur_support, lat.blur_support)],
            atol=1e-9)

    def test_omega_embedding_reproduces_w_star_moments(self):
        lat = LatticeSpec.create(8, 1, blur_len=4, m_v=4, m_h=0)
        prior = build_blur_prior(lat, DESK_HP)
        sigma_w2 = 2.5
        draws = 200_000
        omega = prior.sample_omega(sigma_w2, np.random.default_rng(5), size=draws)
        w = np.zeros((draws, lat.n_v))
        w[:, lat.blur_support] = omega
        emp = w.T @ w / draws
        target = sigma_w2 * prior.r_w_tilde
        sd = np.sqrt(np.diag(target) + 1e-12)
        bound = 4 * (np.outer(sd, sd) + 0.05) / np.sqrt(draws)
        assert np.abs(emp - target).max() < bound.max()
        # embedding is exactly zero off the support
        assert np.abs(w[:, lat.blur_free]).max() == 0.0

    def test_r_omega_positive_definite_grid(self):
        for n_obs, k in ((8, 4), (12, 6), (12, 10)):
            for phi, p in ((1.5, 1.0), (2.0, 1.5), (2.0, 1.98)):
                lat = LatticeSpec.create(n_obs, 1, blur_len=k, m_v=n_obs // 2,
                                         m_h=0)
                if lat.n_v < 12 and p > 1.9:
                    continue   # near-Gaussian correlation is indefinite below n=12
                prior = build_blur_prior(lat, HyperParams(blur=CorrelationSpec(phi, p)))
                assert np.linalg.eigvalsh(prior.r_omega).min() > 0


class TestImagePrior:
    def test_no_constraints(self):
        lat = LatticeSpec.create(6, 2, blur_len=4, m_v=2, m_h=1)
        prior = build_image_prior(lat, DESK_HP, [])
        assert prior.m == 0
        assert np.all(prior.mu_tilde == 0)

    def test_kron_matches_dense_conditional(self):
        lat = desk_lattice()
        c_obs = rng.standard_normal(lat.m) * 0.05
        prior = build_image_prior(lat, DESK_HP, c_obs)
        sigma = np.kron(prior.r_ch.dense().real, prior.r_cv.dense().real)
        sel = lat.image_flat_index()
        mu_t, sigma_t = conditional_params(np.zeros(lat.n), sigma, sel, None,
                                           c_obs)
        np.testing.assert_allclose(np.ravel(prior.mu_tilde, order="F"), mu_t,
                                   atol=1e-10)

    def test_constraint_interpolation_exact(self):
        lat = desk_lattice()
        c_obs = rng.standard_normal(lat.m)
        prior = build_image_prior(lat, DESK_HP, c_obs)
        got = prior.mu_tilde[lat.image_pixels[:, 0], lat.image_pixels[:, 1]]
        np.testing.assert_allclose(got, c_obs, atol=1e-10)

    def test_sigma_tilde_rank(self):
        lat = desk_lattice()
        c_obs = rng.standard_normal(lat.m)
        prior = build_image_prior(lat, DESK_HP, c_obs)
        sigma = np.kron(prior.r_ch.dense().real, prior.r_cv.dense().real)
        _, sigma_t = conditional_params(np.zeros(lat.n), sigma,
                                        lat.image_flat_index(), None, c_obs)
        eigs = np.linalg.eigvalsh(sigma_t)
        assert np.sum(eigs > 1e-8 * eigs.max()) == lat.n - lat.m

    def test_non_kron_mask(self):
        lat = LatticeSpec.create(6, 2, blur_len=4, m_v=2, m_h=1,
                                 image_pixels=[(0, 0), (3, 1)])
        assert lat.image_kron_factors() is None
        prior = build_image_prior(lat, DESK_HP, np.array([0.3, -0.2]))
        got = prior.mu_tilde[lat.image_pixels[:, 0], lat.image_pixels[:, 1]]
        np.testing.assert_allclose(np.sort(got), np.sort([0.3, -0.2]), atol=1e-10)
        with pytest.raises(MaskNotKronecker):
            build_image_prior(lat, DESK_HP, np.array([0.3, -0.2]),
                              require_kron=True)

    def test_derived_noise_variance(self):
        # realized variance triple from the padding study; psi defaults to 1
        lat = LatticeSpec.create(6, 2, blur_len=4, m_v=2, m_h=1)
        noise = build_noise_model(lat, HyperParams())
        got = noise.sigma_d2(0.001, 6.58, 0.091)
        assert got == pytest.approx(6.58 * 0.091 * 0.001)


class TestLattice:
    def test_default_padding_rule(self):
        lat = LatticeSpec.create(24, 6, blur_len=10)
        assert lat.m_v == 12 and lat.m_h == 6
        assert lat.n_v == 36 and lat.n_h == 12

    def test_observed_window_centered(self):
        lat = LatticeSpec.create(24, 6, blur_len=10, m_v=12, m_h=6)
        assert lat.data_rows[0] == 6 and lat.data_rows[-1] == 29
        assert lat.n_v - 1 - lat.data_rows[-1] == lat.data_rows[0]

    def test_real_data_scale_dimensions(self):
        lat = LatticeSpec.create(330, 50, blur_len=126, m_v=150, m_h=50)
        assert (lat.n_v, lat.n_h) == (480, 100)

    def test_odd_extended_order_rejected(self):
        with pytest.raises(OddLattice):
            LatticeSpec.create(7, 2, blur_len=4, m_v=0, m_h=0)

    def test_blur_support_contiguous_central(self):
        lat = LatticeSpec.create(24, 1, blur_len=10, m_v=0, m_h=0)
        sup = lat.blur_support
        assert len(sup) == 10
        assert np.all(np.diff(sup) == 1)
        assert sup[0] == 12 - 5

    def test_pixels_outside_window_rejected(self):
        with pytest.raises(DimensionMismatch):
            LatticeSpec.create(6, 2, blur_len=4, image_pixels=[(7, 0)])


class TestLogPosterior:
    def test_sign_shift_symmetry_without_constraints(self):
        lat = LatticeSpec.create(6, 2, blur_len=4, m_v=2, m_h=1)
        model = SbdModel.build(lat, DESK_HP, [])
        state = random_state(model, np.random.default_rng(8))
        lp = log_posterior_unnorm(state, model)
        flipped = state.copy()
        flipped.omega = -state.omega
        flipped.w_star = -state.w_star
        flipped.c = -state.c
        lp_flip = log_posterior_unnorm(flipped, model)
        assert abs(lp - lp_flip) < 1e-12 * max(1.0, abs(lp))

    def test_likelihood_reduces_to_centered_gaussian(self):
        lat = desk_lattice()
        model = SbdModel.build(lat, DESK_HP, np.zeros(lat.m))
        state = random_state(model, np.random.default_rng(10))
        state.omega = np.zeros(lat.blur_len)
        state.w_star = embed_blur(state.omega, lat)
        state.c = np.zeros((lat.n_v, lat.n_h))

        sigma_d = state.sigma_d2 * np.kron(model.noise.r_dh.dense().real,
                                           model.noise.r_dv.dense().real)
        d = np.ravel(state.d, order="F")
        expected_lik = -0.5 * (lat.n * np.log(2 * np.pi)
                               + np.linalg.slogdet(sigma_d)[1]
                               + d @ np.linalg.solve(sigma_d, d))
        hp = model.hp
        rest = (
            -0.5 * (lat.blur_len * np.log(2 * np.pi)
                    + lat.blur_len * np.log(state.sigma_w2)
                    + model.blur.logdet_r_omega)
            - 0.5 * (lat.n * np.log(2 * np.pi) + lat.n * np.log(state.sigma_c2)
                     + np.sum(np.log(model.image.theta)))
            + ig_logpdf(state.sigma_c2, hp.alpha_c, hp.beta_c)
            + ig_logpdf(state.sigma_w2, hp.alpha_w, hp.beta_w)
            + ig_logpdf(state.zeta, hp.alpha_zeta, hp.beta_zeta)
        )
        got = log_posterior_unnorm(state, model)
        assert got == pytest.approx(expected_lik + rest, rel=1e-9)

    def test_beta_c_shift_identity(self):
        lat = desk_lattice()
        model = SbdModel.build(lat, DESK_HP, np.zeros(lat.m))
        state = random_state(model, np.random.default_rng(11))
        lp1 = log_posterior_unnorm(state, model)
        hp2 = HyperParams(beta_c=2 * model.hp.beta_c, blur=DESK_HP.blur)
        model2 = SbdModel.build(lat, hp2, np.zeros(lat.m))
        lp2 = log_posterior_unnorm(state, model2)
        hp = model.hp
        shift = ig_logpdf(state.sigma_c2, hp.alpha_c, 2 * hp.beta_c) \
            - ig_logpdf(state.sigma_c2, hp.alpha_c, hp.beta_c)
        assert lp2 - lp1 == pytest.approx(shift, rel=1e-12)

    def test_nonpositive_variance_rejected(self):
        lat = desk_lattice()
        model = SbdModel.build(lat, DESK_HP, np.zeros(lat.m))
        state = random_state(model, np.random.default_rng(12))
        state.zeta = 0.0
        with pytest.raises(NonPositiveVariance):
            log_posterior_unnorm(state, model)
