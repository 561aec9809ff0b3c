"""Chain runner: initialization, bookkeeping, adaptation, reproducibility."""

import numpy as np
import pytest
import scipy.linalg

from sbdeconv.chain import (
    SamplerConfig,
    init_state_from_prior,
    run_chain,
    sample_constrained_image,
)
from sbdeconv.diagnostics import sign_changes
from sbdeconv.errors import DimensionMismatch
from sbdeconv.experiments import SimRecipe, simulate_dataset
from sbdeconv.gauss import RngStreams
from sbdeconv.model import CorrelationSpec, HyperParams, LatticeSpec, SbdModel

DESK_HP = HyperParams(blur=CorrelationSpec(1.5, 1.5))


def small_model(seed=0):
    lat = LatticeSpec.create(6, 2, 4, m_v=2, m_h=1, image_rows=(1, 3),
                             image_cols=(1,))
    gen = np.random.default_rng(seed)
    return SbdModel.build(lat, DESK_HP, gen.standard_normal(lat.m) * 0.05)


def desk_problem():
    """The 8x3 / m=2 / k=6 desk problem on a simulated dataset."""
    recipe = SimRecipe(n_v_obs=6, n_h_obs=2, blur_len=6, embed_factor=4,
                       seed=101, hp=DESK_HP)
    data = simulate_dataset(recipe)
    rows = [2, 3]
    lat = LatticeSpec.create(6, 2, 6, m_v=2, m_h=1, image_rows=rows,
                             image_cols=[data["obs_col"]])
    model = SbdModel.build(lat, DESK_HP, data["c_true"][rows, data["obs_col"]])
    return model, data["d_obs"]


class TestInit:
    def test_prior_state_valid_and_reproducible(self):
        model = small_model()
        lat = model.lattice
        d_obs = np.random.default_rng(1).standard_normal((lat.n_v_obs,
                                                          lat.n_h_obs))
        a = init_state_from_prior(model, d_obs, RngStreams(5))
        b = init_state_from_prior(model, d_obs, RngStreams(5))
        np.testing.assert_array_equal(a.c, b.c)
        np.testing.assert_array_equal(a.omega, b.omega)
        assert a.sigma_c2 > 0 and a.sigma_w2 > 0 and a.zeta > 0
        # observed coordinates embedded exactly
        np.testing.assert_array_equal(
            a.d[np.ix_(lat.data_rows, lat.data_cols)], d_obs)
        # constrained pixels at their observed values
        px = lat.image_pixels
        np.testing.assert_allclose(a.c[px[:, 0], px[:, 1]],
                                   model.image.c_obs, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        model = small_model()
        with pytest.raises(DimensionMismatch):
            init_state_from_prior(model, np.zeros((3, 3)), RngStreams(0))

    def test_constrained_image_prior_sampler(self):
        model = small_model()
        lat = model.lattice
        c = sample_constrained_image(model, 0.002, np.random.default_rng(2))
        px = lat.image_pixels
        np.testing.assert_allclose(c[px[:, 0], px[:, 1]], model.image.c_obs,
                                   atol=1e-12)


class TestRunChain:
    def test_burn_in_and_thinning_counts(self):
        model = small_model()
        lat = model.lattice
        d_obs = np.random.default_rng(1).standard_normal((lat.n_v_obs,
                                                          lat.n_h_obs))
        cfg = SamplerConfig(alpha=0.0, iterations=50, burn_in=10, thin=4,
                            seed=2)
        out = run_chain(model, d_obs, cfg)
        assert len(out.sigma_c2) == 10    # ceil(40 / 4)
        assert out.omega.shape == (10, lat.blur_len)

    def test_manifest_records_run(self):
        model = small_model()
        lat = model.lattice
        d_obs = np.zeros((lat.n_v_obs, lat.n_h_obs))
        cfg = SamplerConfig(alpha=1.0, iterations=30, burn_in=10, seed=3,
                            hmc_steps=3, hmc_step_size=0.05)
        out = run_chain(model, d_obs, cfg)
        m = out.manifest
        assert m["seed"] == 3 and m["alpha"] == 1.0
        assert m["counters"]["blur_hmc"] == 30
        assert len(out.hmc_delta_h) == 30
        assert out.hmc_eps.shape == out.hmc_accept.shape

    def test_adaptation_freezes_after_burn_in(self):
        model = small_model()
        lat = model.lattice
        d_obs = np.zeros((lat.n_v_obs, lat.n_h_obs))
        cfg = SamplerConfig(alpha=1.0, iterations=60, burn_in=30, seed=4,
                            hmc_steps=3, hmc_step_size=0.2, hmc_adapt=True)
        out = run_chain(model, d_obs, cfg)
        post = out.hmc_eps[30:]
        assert np.all(post == post[0])
        # adaptation actually moved the step during burn-in
        assert len(set(out.hmc_eps[:30])) > 1

    def test_divergences_counted(self):
        model, d_obs = desk_problem()

        wild = SamplerConfig(alpha=1.0, iterations=20, seed=6, hmc_steps=5,
                             hmc_step_size=50.0, hmc_adapt=False)
        out = run_chain(model, d_obs, wild)
        assert out.counters["hmc_divergent"] == out.counters["blur_hmc"] == 20
        assert out.manifest["counters"]["hmc_divergent"] == 20

        state = init_state_from_prior(model, d_obs, RngStreams(7))
        warm = run_chain(model, d_obs, SamplerConfig(alpha=0.0, iterations=200,
                                                     seed=7), state=state)
        assert warm.counters["hmc_divergent"] == 0
        normal = SamplerConfig(alpha=1.0, iterations=200, seed=8, hmc_steps=5,
                               hmc_step_size=0.01, hmc_adapt=False)
        out = run_chain(model, d_obs, normal, state=state)
        assert out.counters["blur_hmc"] == 200
        assert out.counters["hmc_divergent"] == 0
        assert out.manifest["counters"]["hmc_divergent"] == 0

    def test_scattered_mask_with_hmc(self):
        lat = LatticeSpec.create(6, 2, 4, m_v=2, m_h=1,
                                 image_pixels=[(0, 0), (3, 1)])
        model = SbdModel.build(lat, DESK_HP, np.array([0.1, -0.1]))
        d_obs = np.random.default_rng(1).standard_normal((lat.n_v_obs,
                                                          lat.n_h_obs))
        out = run_chain(model, d_obs, SamplerConfig(alpha=0.0, iterations=3, seed=2))
        assert out.counters["blur_gibbs"] == 3
        px = lat.image_pixels
        for alpha in (0.5, 1.0):
            state = init_state_from_prior(model, d_obs, RngStreams(2))
            out = run_chain(model, d_obs, SamplerConfig(alpha=alpha, iterations=20,
                                                        seed=2, hmc_steps=5),
                            state=state)
            assert out.counters["blur_hmc"] > 0
            np.testing.assert_array_equal(state.c[px[:, 0], px[:, 1]],
                                          model.image.c_obs)

    def test_nugget_retries_counted(self, monkeypatch):
        model, d_obs = desk_problem()
        out = run_chain(model, d_obs, SamplerConfig(
            alpha=0.5, iterations=50, seed=2, hmc_steps=5, hmc_step_size=0.01,
            hmc_adapt=False))
        assert out.counters["blur_gibbs"] > 0 and out.counters["blur_hmc"] > 0
        assert out.counters["nugget_retries"] == 0
        assert out.manifest["counters"]["nugget_retries"] == 0

        # the first factorization of the run fails once, as a near-singular
        # Gram would
        cho_factor = scipy.linalg.cho_factor
        calls = []

        def failing_once(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise scipy.linalg.LinAlgError("forced")
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", failing_once)
        out = run_chain(model, d_obs, SamplerConfig(alpha=0.0, iterations=5,
                                                    seed=2))
        assert len(calls) > 2
        assert out.counters["nugget_retries"] == 1
        assert out.manifest["counters"]["nugget_retries"] == 1

    def test_invalid_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            SamplerConfig(iterations=0)
        with pytest.raises(DimensionMismatch):
            SamplerConfig(alpha=1.5)


class TestScatteredMaskLanes:
    def test_hmc_lane_agrees_with_gibbs_lane(self):
        # two simulated columns, 16 pixels observed exactly with no common
        # rows x columns structure: the blur stays in one sign mode, so both
        # lanes must give the same blur means.  Both start from one state
        # warmed by Gibbs sweeps; the HMC lane mixes several times faster per
        # sweep, so it runs a fifth as long.
        recipe = SimRecipe(n_v_obs=24, n_h_obs=2, blur_len=10, embed_factor=1,
                           seed=6)
        data = simulate_dataset(recipe)
        pixels = [(1, 0), (2, 0), (4, 0), (10, 0), (17, 0), (18, 0), (21, 0),
                  (0, 1), (1, 1), (2, 1), (4, 1), (12, 1), (16, 1), (18, 1),
                  (19, 1), (23, 1)]
        lat = LatticeSpec.create(24, 2, 10, m_v=0, m_h=0, image_pixels=pixels)
        assert lat.image_kron_factors() is None
        px = lat.image_pixels
        model = SbdModel.build(lat, recipe.hp, data["c_true"][px[:, 0], px[:, 1]])
        d_obs = data["d_obs"]

        warm = init_state_from_prior(model, d_obs, RngStreams(10))
        run_chain(model, d_obs, SamplerConfig(alpha=0.0, iterations=1000, seed=10),
                  state=warm)
        gibbs = run_chain(model, d_obs, SamplerConfig(
            alpha=0.0, iterations=10_000, seed=11), state=warm.copy()).omega
        hmc = run_chain(model, d_obs, SamplerConfig(
            alpha=1.0, iterations=2000, burn_in=400, seed=12, hmc_steps=5,
            hmc_step_size=0.01), state=warm.copy()).omega

        assert sign_changes(gibbs[:, 5]) == 0 and sign_changes(hmc[:, 5]) == 0
        shift = np.abs(hmc.mean(axis=0) - gibbs.mean(axis=0)) / gibbs.std(axis=0)
        assert shift.max() < 0.4
