"""Gibbs full conditionals against dense oracles and stationarity checks."""

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings, strategies as st

from sbdeconv.chain import init_state_from_prior
from sbdeconv.fourier import BccbMatrix, CirculantMatrix, convolve_columns, rdft2
from sbdeconv.gauss import FourierGaussian, RngStreams, sample_fourier_gaussian
from sbdeconv.gibbs import (
    GibbsWorkspace,
    aux_fc_params,
    blur_fc_params,
    gamma_precision_eigs,
    gibbs_sweep,
    image_fc_params,
    sample_aux_data_fc,
    sample_blur_fc,
    sample_image_fc,
    sample_sigma_c,
    sample_sigma_w,
    sample_zeta,
    sigma_c_conditional,
    sigma_w_conditional,
    sum_squares_blur,
    sum_squares_data,
    sum_squares_image,
    zeta_conditional,
)
from sbdeconv.hmc import HmcConfig
from sbdeconv.model import (
    CorrelationSpec,
    HyperParams,
    LatticeSpec,
    ModelState,
    SbdModel,
    embed_blur,
)
from sbdeconv.oracle import DenseModel
from test_hmc import masked_lattices, random_state
from test_kriging import specs

DESK_HP = HyperParams(blur=CorrelationSpec(1.5, 1.5))


def make_model(n_v_obs=6, n_h_obs=2, k=4, m_v=2, m_h=1, image_rows=(1, 3),
               image_cols=(1,), seed=0):
    lat = LatticeSpec.create(n_v_obs, n_h_obs, k, m_v=m_v, m_h=m_h,
                             image_rows=image_rows, image_cols=image_cols)
    gen = np.random.default_rng(seed)
    c_obs = gen.standard_normal(lat.m) * 0.05
    return SbdModel.build(lat, DESK_HP, c_obs)


def make_state(model, seed=1):
    lat = model.lattice
    gen = np.random.default_rng(seed)
    omega = gen.standard_normal(lat.blur_len)
    c = gen.standard_normal((lat.n_v, lat.n_h)) * 0.05
    if lat.m:
        c[lat.image_pixels[:, 0], lat.image_pixels[:, 1]] = model.image.c_obs
    return ModelState(
        omega=omega, w_star=embed_blur(omega, lat), c=c,
        d=gen.standard_normal((lat.n_v, lat.n_h)) * 0.1,
        sigma_c2=0.002, sigma_w2=3.0, zeta=0.15, psi=model.hp.psi,
    )


def dense_pieces(model, state):
    lat = model.lattice
    n_v, n_h = lat.n_v, lat.n_h
    idx = np.arange(n_v)
    gamma = np.vstack([
        state.c[:, j][(idx[:, None] - idx[None, :] + n_v // 2) % n_v]
        for j in range(n_h)
    ])
    w0 = state.w_star[(idx[:, None] - idx[None, :] + n_v // 2) % n_v]
    w_full = np.kron(np.eye(n_h), w0)
    r_d = np.kron(model.noise.r_dh.dense().real, model.noise.r_dv.dense().real)
    r_c = np.kron(model.image.r_ch.dense().real, model.image.r_cv.dense().real)
    return gamma, w_full, r_d, r_c


def _fc_moments(params):
    """Mean and dense covariance of the unconstrained draw a full-spectrum
    (mean, eigenvalue) pair describes; the covariance is symmetric."""
    mean_hat, eig_cov = params
    if mean_hat.ndim == 1:
        return (np.fft.ifft(mean_hat, norm="ortho").real,
                CirculantMatrix.from_eigs(eig_cov).dense())
    return (np.ravel(np.fft.ifft2(mean_hat, norm="ortho").real, order="F"),
            BccbMatrix.from_eigs(eig_cov).dense())


class TestConditionalProperty:
    """Fourier mean and covariance of the blur, image and aux-data full
    conditionals against the dense Gaussian conditioning formulas of
    ``oracle.DenseModel``, to 1e-10 relative, on random lattices."""

    @settings(max_examples=100, deadline=None)
    @given(lat=masked_lattices(), image=st.tuples(specs, specs),
           noise=st.tuples(specs, specs), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_conditioning(self, lat, image, noise, seed):
        gen = np.random.default_rng(seed)
        hp = HyperParams(blur=DESK_HP.blur, image_v=image[0], image_h=image[1],
                         noise_v=noise[0], noise_h=noise[1])
        model = SbdModel.build(lat, hp, gen.standard_normal(lat.m) * 0.05)
        state = random_state(model, gen)
        dm = DenseModel(model, state)
        d = np.ravel(state.d, order="F")

        def conditioned(prior, op):
            cross = prior @ op.T
            inner = op @ cross + dm.sigma_d
            return (cross @ scipy.linalg.solve(inner, d, assume_a="pos"),
                    prior - cross @ scipy.linalg.solve(inner, cross.T, assume_a="pos"))

        refs = {
            "blur": conditioned(state.sigma_w2 * dm.r_w, dm.gamma),
            "image": conditioned(state.sigma_c2 * dm.r_c, dm.w_full),
            "aux": (dm.w_full @ np.ravel(state.c, order="F"), dm.sigma_d),
        }
        for name, params in (("blur", blur_fc_params(state, model)),
                             ("image", image_fc_params(state, model)),
                             ("aux", aux_fc_params(state, model))):
            for got, ref in zip(_fc_moments(params), refs[name]):
                gap = np.abs(got - ref).max() / np.abs(ref).max()
                assert gap <= 1e-10, f"{name}: relative error {gap:.2e}"


class TestBlurConditional:
    def test_params_match_dense_joint(self):
        model = make_model()
        state = make_state(model)
        lat = model.lattice
        gamma, _, r_d, _ = dense_pieces(model, state)
        mu_hat, eig_cov = blur_fc_params(state, model)

        mu = np.fft.ifft(mu_hat, norm="ortho").real
        base = np.fft.ifft(eig_cov).real
        idx = np.arange(lat.n_v)
        sigma = base[(idx[None, :] - idx[:, None]) % lat.n_v]

        sigma_w = state.sigma_w2 * model.blur.r_w.dense().real
        cross = sigma_w @ gamma.T
        inner = gamma @ cross + state.sigma_d2 * r_d
        d = np.ravel(state.d, order="F")
        mu_dense = cross @ scipy.linalg.solve(inner, d, assume_a="pos")
        sigma_dense = sigma_w - cross @ scipy.linalg.solve(inner, cross.T,
                                                           assume_a="pos")
        scale = np.abs(sigma_dense).max()
        assert np.abs(mu - mu_dense).max() / np.abs(mu_dense).max() < 1e-9
        assert np.abs(sigma - sigma_dense).max() / scale < 1e-9

    def test_gamma_precision_eigs_match_dense(self):
        # lattices up to 12x4
        for dims in ((6, 2, 1, 1), (8, 3, 4, 1), (10, 2, 2, 2)):
            n_v_obs, n_h_obs, m_v, m_h = dims
            model = make_model(n_v_obs, n_h_obs, 4, m_v, m_h,
                               image_rows=(), image_cols=())
            state = make_state(model)
            gamma, _, r_d, _ = dense_pieces(model, state)
            lam = gamma_precision_eigs(rdft2(state.c), model)
            dense = gamma.T @ np.linalg.solve(r_d, gamma)
            idx = np.arange(model.lattice.n_v)
            base = np.fft.irfft(lam, model.lattice.n_v)
            struct = base[(idx[:, None] - idx[None, :]) % model.lattice.n_v]
            assert np.abs(struct - dense).max() / np.abs(dense).max() < 1e-9

    def test_zero_data_centers_blur(self):
        model = make_model()
        state = make_state(model)
        state.d = np.zeros_like(state.d)
        mu_hat, eig_cov = blur_fc_params(state, model)
        assert np.abs(mu_hat).max() < 1e-14
        draws = np.array([
            sample_blur_fc(state, model, np.random.default_rng(i))[0]
            for i in range(2000)
        ])
        sd = np.sqrt(np.fft.ifft(eig_cov).real[0])
        assert np.abs(draws.mean(axis=0)).max() < 4 * sd / np.sqrt(2000) + 1e-12

    def test_support_zeros_exact(self):
        model = make_model()
        state = make_state(model)
        rng = np.random.default_rng(5)
        for _ in range(50):
            w_star, omega = sample_blur_fc(state, model, rng)
            assert np.abs(w_star[model.lattice.blur_free]).max() <= 1e-10
            np.testing.assert_array_equal(w_star[model.lattice.blur_support],
                                          omega)


class TestImageConditional:
    def test_params_match_dense_joint(self):
        model = make_model()
        state = make_state(model)
        lat = model.lattice
        _, w_full, r_d, r_c = dense_pieces(model, state)
        mean_hat, eig_grid = image_fc_params(state, model)

        mu = np.ravel(np.fft.ifft2(mean_hat, norm="ortho").real, order="F")
        base = np.fft.ifft2(eig_grid).real
        flat = np.arange(lat.n)
        ri, rj = flat % lat.n_v, flat // lat.n_v
        sigma = base[(ri[:, None] - ri[None, :]) % lat.n_v,
                     (rj[:, None] - rj[None, :]) % lat.n_h]

        sigma_c = state.sigma_c2 * r_c
        cross = sigma_c @ w_full.T
        inner = w_full @ cross + state.sigma_d2 * r_d
        d = np.ravel(state.d, order="F")
        mu_dense = cross @ scipy.linalg.solve(inner, d, assume_a="pos")
        sigma_dense = sigma_c - cross @ scipy.linalg.solve(inner, cross.T,
                                                           assume_a="pos")
        assert np.abs(mu - mu_dense).max() / np.abs(mu_dense).max() < 1e-9
        assert np.abs(sigma - sigma_dense).max() / np.abs(sigma_dense).max() < 1e-9

    def test_unconstrained_moments(self):
        model = make_model(image_rows=(), image_cols=())
        state = make_state(model)
        mean_hat, eig_grid = image_fc_params(state, model)
        mean = np.fft.ifft2(mean_hat, norm="ortho").real
        draws = np.array([
            sample_image_fc(state, model, np.random.default_rng(i))
            for i in range(4000)
        ])
        sd = np.sqrt(np.fft.ifft2(eig_grid).real[0, 0])
        assert np.abs(draws.mean(axis=0) - mean).max() < 4 * sd / np.sqrt(4000)

    def test_constrained_pixels_exact(self):
        model = make_model()
        state = make_state(model)
        lat = model.lattice
        rng = np.random.default_rng(4)
        for _ in range(50):
            c = sample_image_fc(state, model, rng)
            got = c[lat.image_pixels[:, 0], lat.image_pixels[:, 1]]
            assert np.abs(got - model.image.c_obs).max() <= 1e-10


class TestAuxDataConditional:
    def test_no_padding_returns_observed(self):
        lat = LatticeSpec.create(8, 2, 4, m_v=0, m_h=0)
        model = SbdModel.build(lat, DESK_HP, [])
        state = make_state(model)
        d_obs = state.d.copy()
        out = sample_aux_data_fc(state, model, np.random.default_rng(0))
        np.testing.assert_allclose(out, d_obs, atol=1e-10)

    def test_observed_exact_every_draw(self):
        model = make_model()
        state = make_state(model)
        lat = model.lattice
        rng = np.random.default_rng(6)
        d_obs = state.d[np.ix_(lat.data_rows, lat.data_cols)].copy()
        for _ in range(50):
            out = sample_aux_data_fc(state, model, rng)
            got = out[np.ix_(lat.data_rows, lat.data_cols)]
            assert np.abs(got - d_obs).max() <= 1e-10

    def test_conditional_moments_match_dense(self):
        model = make_model()
        state = make_state(model)
        lat = model.lattice
        draws = np.array([
            np.ravel(sample_aux_data_fc(state, model, np.random.default_rng(i)),
                     order="F")
            for i in range(20_000)
        ])
        _, w_full, r_d, _ = dense_pieces(model, state)
        mean = w_full @ np.ravel(state.c, order="F")
        sigma_d = state.sigma_d2 * r_d
        sel = lat.data_flat_index()
        d_obs = np.ravel(state.d, order="F")[sel]
        from sbdeconv.gauss import conditional_params

        mu_t, sigma_t = conditional_params(mean, sigma_d, sel, None, d_obs)
        aux = lat.aux_flat_index()
        sd = np.sqrt(np.maximum(np.diag(sigma_t)[aux], 1e-14))
        gap = np.abs(draws[:, aux].mean(axis=0) - mu_t[aux])
        assert np.all(gap < 4 * sd / np.sqrt(len(draws)) + 1e-10)
        emp_var = draws[:, aux].var(axis=0)
        assert np.abs(emp_var - sd**2).max() < 6 * (sd**2).max() / np.sqrt(len(draws)) + 1e-8


class TestVarianceConditionals:
    def test_shape_arithmetic(self):
        lat = LatticeSpec.create(24, 1, 10, m_v=0, m_h=0)
        model = SbdModel.build(lat, HyperParams(), [])
        state = make_state(model)
        alpha, _ = sigma_w_conditional(state, model, sum_squares_data(state, model))
        assert alpha == pytest.approx(2.01 + (24 + 10) / 2)
        assert alpha == pytest.approx(19.01)

    def test_ssd_fourier_vs_dense(self):
        model = make_model()
        state = make_state(model)
        _, w_full, r_d, _ = dense_pieces(model, state)
        resid = np.ravel(state.d, order="F") - w_full @ np.ravel(state.c, order="F")
        dense = resid @ np.linalg.solve(r_d, resid)
        got = sum_squares_data(state, model)
        assert abs(got - dense) / dense < 1e-9

    def test_zero_residual(self):
        model = make_model()
        state = make_state(model)
        state.d = convolve_columns(state.w_star, state.c)
        assert sum_squares_data(state, model) < 1e-18
        _, beta = sigma_w_conditional(state, model, sum_squares_data(state, model))
        ssw = sum_squares_blur(state, model)
        assert beta == pytest.approx(model.hp.beta_w + ssw / 2)

    def test_sums_nonnegative_draws_positive(self):
        model = make_model()
        state = make_state(model, seed=9)
        assert sum_squares_data(state, model) >= 0
        assert sum_squares_image(state, model) >= 0
        assert sum_squares_blur(state, model) >= 0
        rng = np.random.default_rng(0)
        ssd = sum_squares_data(state, model)
        for _ in range(100):
            assert sample_sigma_c(state, model, ssd, rng) > 0
            assert sample_sigma_w(state, model, ssd, rng) > 0
            assert sample_zeta(state, model, ssd, rng) > 0

    def test_conditional_draws_match_inverse_gamma(self):
        # frozen state: conditional draws are exactly IG(alpha', beta')
        model = make_model()
        state = make_state(model, seed=13)
        rng = np.random.default_rng(77)
        ssd = sum_squares_data(state, model)
        for cond, sampler, stream in (
            (sigma_w_conditional, sample_sigma_w, rng),
            (sigma_c_conditional, sample_sigma_c, rng),
            (zeta_conditional, sample_zeta, rng),
        ):
            alpha, beta = cond(state, model, ssd)
            draws = np.array([sampler(state, model, ssd, stream) for _ in range(4000)])
            p = scipy.stats.kstest(draws / beta, "invgamma", args=(alpha,)).pvalue
            assert p > 0.01


class TestSweep:
    def test_alpha_zero_always_gibbs(self):
        model = make_model()
        state = make_state(model)
        streams = RngStreams(3)
        counters = {}
        for _ in range(5):
            gibbs_sweep(state, model, streams, alpha=0.0, counters=counters)
        assert counters["blur_gibbs"] == 5 and counters.get("blur_hmc", 0) == 0

    def test_alpha_one_always_hmc(self):
        model = make_model()
        state = make_state(model)
        streams = RngStreams(3)
        counters = {}
        cfg = HmcConfig(3, 0.02)
        for _ in range(5):
            gibbs_sweep(state, model, streams, alpha=1.0, hmc_cfg=cfg,
                        counters=counters)
        assert counters["blur_hmc"] == 5 and counters.get("blur_gibbs", 0) == 0

    def test_alpha_mixture(self):
        model = make_model()
        state = make_state(model)
        streams = RngStreams(3)
        counters = {}
        cfg = HmcConfig(3, 0.02)
        for _ in range(40):
            gibbs_sweep(state, model, streams, alpha=0.5, hmc_cfg=cfg,
                        counters=counters)
        assert counters["blur_hmc"] > 0 and counters["blur_gibbs"] > 0
        assert counters["blur_hmc"] + counters["blur_gibbs"] == 40


def _geweke_replicate(model, seed, sweeps):
    lat = model.lattice
    streams = RngStreams(seed)
    state = init_state_from_prior(model, np.zeros((lat.n_v_obs, lat.n_h_obs)),
                                  streams)
    ws = GibbsWorkspace()
    for _ in range(sweeps):
        mean = convolve_columns(state.w_star, state.c)
        rows = lat.n_v // 2 + 1
        noise = sample_fourier_gaussian(FourierGaussian(
            np.zeros((rows, lat.n_h), dtype=complex),
            state.sigma_d2 * model.noise.theta[:rows], lat.n_v), streams.sim)
        state.d = mean + noise
        gibbs_sweep(state, model, streams, alpha=0.0, ws=ws)
    return state


class TestStationarity:
    def test_successive_conditional_preserves_prior(self):
        # Replicated short chains started at exact prior draws: after any
        # number of data-regenerate/sweep rounds the state is still an exact
        # prior draw, so the replicates are iid and the chi-square is valid.
        lat = LatticeSpec.create(12, 3, blur_len=6, m_v=4, m_h=1)
        assert (lat.n_v, lat.n_h) == (16, 4)
        hp = DESK_HP
        model = SbdModel.build(lat, hp, [])
        replicates, sweeps = 2500, 8           # 2e4 sweeps in total
        samples = np.empty((replicates, 5))
        for r in range(replicates):
            st = _geweke_replicate(model, RngStreams.derive(20240518, r), sweeps)
            samples[r] = (
                st.sigma_c2, st.sigma_w2, st.zeta,
                st.omega[2] / np.sqrt(st.sigma_w2 * model.blur.r_omega[2, 2]),
                st.c[5, 2] / np.sqrt(st.sigma_c2 * model.image.base[0, 0]),
            )
        crit = scipy.stats.chi2.ppf(0.99, 9)
        for j, (alpha, beta) in enumerate([(hp.alpha_c, hp.beta_c),
                                           (hp.alpha_w, hp.beta_w),
                                           (hp.alpha_zeta, hp.beta_zeta)]):
            edges = scipy.stats.invgamma.ppf(np.linspace(0, 1, 11), alpha,
                                             scale=beta)
            edges[0], edges[-1] = 0.0, np.inf
            counts, _ = np.histogram(samples[:, j], bins=edges)
            stat = ((counts - replicates / 10) ** 2 / (replicates / 10)).sum()
            assert stat < crit, f"variance marginal {j} drifted: chi2={stat:.1f}"
        # standardized blur and image coordinates stay standard normal
        assert scipy.stats.kstest(samples[:, 3], "norm").pvalue > 0.01
        assert scipy.stats.kstest(samples[:, 4], "norm").pvalue > 0.01
