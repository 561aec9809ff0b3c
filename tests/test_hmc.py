"""Marginal HMC blur update: potential, gradient, integrator, update."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings, strategies as st

import sbdeconv.hmc
from sbdeconv.errors import IndefiniteS, StaleWorkspace
from sbdeconv.fourier import half_to_full
from sbdeconv.gauss import RngStreams
from sbdeconv.hmc import (
    DualAveraging,
    HmcConfig,
    grad_potential,
    hmc_update,
    leapfrog,
    potential,
)
from sbdeconv.model import (
    CorrelationSpec,
    HyperParams,
    LatticeSpec,
    ModelState,
    SbdModel,
    embed_blur,
)
from sbdeconv.oracle import dense_marginal_potential, fd_gradient
from sbdeconv.experiments import SimRecipe, simulate_dataset

DESK_HP = HyperParams(blur=CorrelationSpec(1.5, 1.5))


def desk_model(k=6, image_rows=(1, 3), image_cols=(1,), seed=0):
    lat = LatticeSpec.create(6, 2, k, m_v=2, m_h=1, image_rows=image_rows,
                             image_cols=image_cols)
    gen = np.random.default_rng(seed)
    return SbdModel.build(lat, DESK_HP, gen.standard_normal(lat.m) * 0.05)


def desk_state(model, seed=1):
    lat = model.lattice
    gen = np.random.default_rng(seed)
    omega = gen.standard_normal(lat.blur_len) * 0.7
    c = gen.standard_normal((lat.n_v, lat.n_h)) * 0.05
    if lat.m:
        c[lat.image_pixels[:, 0], lat.image_pixels[:, 1]] = model.image.c_obs
    return ModelState(
        omega=omega, w_star=embed_blur(omega, lat), c=c,
        d=gen.standard_normal((lat.n_v, lat.n_h)) * 0.1,
        sigma_c2=0.002, sigma_w2=3.0, zeta=0.15, psi=model.hp.psi,
    )


class TestPotential:
    def test_matches_dense_oracle(self):
        model = desk_model()
        state = desk_state(model)
        u, _ = potential(state.omega, state, model)
        u_dense = dense_marginal_potential(state.omega, state, model)
        assert abs(u - u_dense) / abs(u_dense) < 1e-8

    def test_symmetry_without_constraints(self):
        model = desk_model(image_rows=(), image_cols=())
        state = desk_state(model)
        up, _ = potential(state.omega, state, model)
        um, _ = potential(-state.omega, state, model)
        assert up == um

    def test_zero_blur_reduces_to_noise_gaussian(self):
        model = desk_model(image_rows=(), image_cols=())
        state = desk_state(model)
        lat = model.lattice
        zero = np.zeros(lat.blur_len)
        u, _ = potential(zero, state, model)

        sigma_d = state.sigma_d2 * np.kron(model.noise.r_dh.dense().real,
                                           model.noise.r_dv.dense().real)
        d = np.ravel(state.d, order="F")
        nll = 0.5 * (lat.n * np.log(2 * np.pi)
                     + np.linalg.slogdet(sigma_d)[1]
                     + d @ np.linalg.solve(sigma_d, d))
        prior = 0.5 * (lat.blur_len * np.log(2 * np.pi)
                       + lat.blur_len * np.log(state.sigma_w2)
                       + model.blur.logdet_r_omega)
        assert u == pytest.approx(nll + prior, abs=1e-10 * abs(nll + prior))

    def test_logdet_matches_dense(self):
        from sbdeconv.oracle import DenseModel, dense_logdet

        model = desk_model()
        state = desk_state(model)
        _, ws = potential(state.omega, state, model)
        lam_a = half_to_full(ws.lam_a, model.lattice.n_v)
        struct = float(np.sum(np.log(lam_a))) + 2.0 * (
            np.log(np.diag(ws.chol_s)).sum() - np.log(np.diag(ws.chol_mc)).sum())
        dm = DenseModel(model, state)
        assert abs(struct - dense_logdet(dm.sigma_d_omega())) < 1e-8

    def test_scattered_mask_matches_dense_oracle(self):
        lat = LatticeSpec.create(6, 2, 4, m_v=2, m_h=1,
                                 image_pixels=[(0, 0), (3, 1)])
        model = SbdModel.build(lat, DESK_HP, np.array([0.1, -0.1]))
        state = desk_state(model)
        u, _ = potential(state.omega, state, model)
        u_dense = dense_marginal_potential(state.omega, state, model)
        assert abs(u - u_dense) / abs(u_dense) < 1e-8


class TestGradient:
    def test_matches_finite_differences(self):
        model = desk_model()
        state = desk_state(model)
        u, ws = potential(state.omega, state, model)
        g = grad_potential(state.omega, ws, state, model)
        g_fd = fd_gradient(lambda w: potential(w, state, model)[0],
                           state.omega, 1e-5)
        rel = np.abs(g - g_fd) / np.maximum(np.abs(g_fd), 1e-8)
        assert rel.max() < 1e-4

    def test_odd_under_sign_flip_without_constraints(self):
        model = desk_model(image_rows=(), image_cols=())
        state = desk_state(model)
        _, ws_p = potential(state.omega, state, model)
        g_p = grad_potential(state.omega, ws_p, state, model)
        _, ws_m = potential(-state.omega, state, model)
        g_m = grad_potential(-state.omega, ws_m, state, model)
        np.testing.assert_allclose(g_p, -g_m, atol=1e-12)

    def test_zero_data_zero_mean_kills_ss_term(self):
        model = desk_model(image_rows=(), image_cols=())
        state = desk_state(model)
        state.d = np.zeros_like(state.d)
        _, ws = potential(state.omega, state, model)
        g = grad_potential(state.omega, ws, state, model)
        g_fd = fd_gradient(lambda w: potential(w, state, model)[0],
                           state.omega, 1e-5)
        rel = np.abs(g - g_fd) / np.maximum(np.abs(g_fd), 1e-8)
        assert rel.max() < 1e-4
        # reduced potential: prior plus half log-determinant only
        prior_term = model.blur.solve(state.omega) / state.sigma_w2
        n_v = model.lattice.n_v
        lam_dot = np.array([half_to_full(row, n_v) for row in model.blur.impulse_eigs])
        a_all = 2.0 * (lam_dot * np.conj(half_to_full(ws.lam_w0, n_v))[None, :]).real
        colagg = state.sigma_c2 * np.sum(model.image.theta
                                         / half_to_full(ws.lam_a, n_v), axis=1)
        np.testing.assert_allclose(g, prior_term + 0.5 * (a_all @ colagg),
                                   atol=1e-12)

    def test_stale_workspace_rejected(self):
        model = desk_model()
        state = desk_state(model)
        _, ws = potential(state.omega, state, model)
        with pytest.raises(StaleWorkspace):
            grad_potential(state.omega + 0.1, ws, state, model)


@st.composite
def masked_lattices(draw):
    """Even n_v from 4 to 12, n_h from 1 to 4, k from 1 to n_v - 1, and an
    empty, one-column, several-rows x several-columns or scattered
    constraint mask."""
    n_v = 2 * draw(st.integers(2, 6))
    n_h = draw(st.integers(1, 4))
    k = draw(st.integers(1, n_v - 1))
    # one column admits no mask that is not rows x columns
    masks = ("empty", "column") + (("kron", "scattered") if n_h > 1 else ())
    mask = draw(st.sampled_from(masks))
    if mask == "scattered":
        flat = draw(st.lists(st.integers(0, n_v * n_h - 1), min_size=2, unique=True))
        lat = LatticeSpec.create(n_v, n_h, k, m_v=0, m_h=0,
                                 image_pixels=[(f % n_v, f // n_v) for f in flat])
        assume(lat.image_kron_factors() is None)
        return lat
    rows = cols = ()
    if mask == "column":
        rows = draw(st.lists(st.integers(0, n_v - 1), min_size=1, unique=True))
        cols = [draw(st.integers(0, n_h - 1))]
    elif mask == "kron":
        rows = draw(st.lists(st.integers(0, n_v - 1), min_size=2, unique=True))
        cols = draw(st.lists(st.integers(0, n_h - 1), min_size=2, unique=True))
    return LatticeSpec.create(n_v, n_h, k, m_v=0, m_h=0, image_rows=rows,
                              image_cols=cols)


def random_state(model, gen):
    lat = model.lattice
    omega = gen.standard_normal(lat.blur_len) * 0.8
    return ModelState(
        omega=omega, w_star=embed_blur(omega, lat),
        c=gen.standard_normal((lat.n_v, lat.n_h)) * 0.05,
        d=gen.standard_normal((lat.n_v, lat.n_h)) * 0.1,
        sigma_c2=float(np.exp(gen.uniform(-7, -4))),
        sigma_w2=float(np.exp(gen.uniform(0, 2))),
        zeta=float(np.exp(gen.uniform(-3, -1))), psi=model.hp.psi,
    )


class TestPotentialProperty:
    # columns 0 and 3 of 4 differ by 1 and by 3 cyclically, so the Schur block
    # reads the offset grid at three columns and the mask at two
    @settings(max_examples=100, deadline=None)
    @given(lat=masked_lattices(), seed=st.integers(0, 2**32 - 1))
    @example(lat=LatticeSpec.create(8, 4, 5, m_v=0, m_h=0, image_rows=(1, 6),
                                    image_cols=(0, 3)), seed=2)
    def test_matches_dense_oracle(self, lat, seed):
        gen = np.random.default_rng(seed)
        model = SbdModel.build(lat, DESK_HP, gen.standard_normal(lat.m) * 0.05)
        state = random_state(model, gen)
        u, _ = potential(state.omega, state, model)
        u_dense = dense_marginal_potential(state.omega, state, model)
        # relative to |U|, floored at 1 where the terms of U cancel to near 0
        assert abs(u - u_dense) <= 1e-10 * max(abs(u_dense), 1.0)


class TestGradientProperty:
    # k = n_v - 1 puts support shifts at both ends of the column, where the
    # gather index (r_p + s_i) % n_v wraps around; the last example's pixels
    # share no row and no column
    @settings(max_examples=100, deadline=None)
    @given(lat=masked_lattices(), seed=st.integers(0, 2**32 - 1))
    @example(lat=LatticeSpec.create(12, 3, 11, m_v=0, m_h=0, image_rows=(0, 5, 11),
                                    image_cols=(0, 2)), seed=0)
    @example(lat=LatticeSpec.create(4, 1, 3, m_v=0, m_h=0, image_rows=(3,),
                                    image_cols=(0,)), seed=1)
    @example(lat=LatticeSpec.create(10, 3, 9, m_v=0, m_h=0,
                                    image_pixels=[(0, 0), (4, 1), (9, 2)]), seed=3)
    def test_matches_dense_finite_differences(self, lat, seed):
        gen = np.random.default_rng(seed)
        model = SbdModel.build(lat, DESK_HP, gen.standard_normal(lat.m) * 0.05)
        state = random_state(model, gen)
        omega = state.omega
        _, ws = potential(omega, state, model)
        g = grad_potential(omega, ws, state, model)
        g_fd = fd_gradient(lambda w: dense_marginal_potential(w, state, model),
                           omega, 1e-5)
        rel = np.abs(g - g_fd) / np.maximum(np.abs(g_fd), 1e-8)
        assert rel.max() < 1e-4


class TestLeapfrog:
    def test_vanishing_step_is_identity(self):
        model = desk_model()
        state = desk_state(model)

        def grad(w):
            _, ws = potential(w, state, model)
            return grad_potential(w, ws, state, model)

        m_inv = state.sigma_w2 * model.blur.r_omega
        p0 = np.random.default_rng(2).standard_normal(model.lattice.blur_len)
        w1, p1 = leapfrog(state.omega, p0, 1e-8, 1, grad, m_inv)
        assert np.abs(w1 - state.omega).max() < 1e-6
        assert np.abs(p1 - p0).max() < 1e-6

    def test_reversibility(self):
        lat = LatticeSpec.create(12, 1, 10, m_v=12, m_h=0)
        model = SbdModel.build(lat, HyperParams(), [])
        gen = np.random.default_rng(3)
        omega = gen.standard_normal(10) * 0.3
        state = ModelState(
            omega=omega, w_star=embed_blur(omega, lat),
            c=gen.standard_normal((lat.n_v, lat.n_h)) * 0.05,
            d=gen.standard_normal((lat.n_v, lat.n_h)) * 0.1,
            sigma_c2=0.002, sigma_w2=3.0, zeta=0.15,
        )

        def grad(w):
            _, ws = potential(w, state, model)
            return grad_potential(w, ws, state, model)

        m_inv = state.sigma_w2 * model.blur.r_omega
        p0 = gen.standard_normal(10)
        w1, p1 = leapfrog(omega, p0, 0.01, 20, grad, m_inv)
        w2, p2 = leapfrog(w1, -p1, 0.01, 20, grad, m_inv)
        assert np.abs(w2 - omega).max() < 1e-8
        assert np.abs(p2 + p0).max() < 1e-8

    def test_energy_error_small_on_unit_column_problem(self):
        # 24 x 1 study configuration, small fixed step, stationary regime
        recipe = SimRecipe(n_v_obs=24, n_h_obs=1, blur_len=10, embed_factor=1,
                           seed=31)
        data = simulate_dataset(recipe)
        rows = np.sort(np.array([11, 12]))
        lat = LatticeSpec.create(24, 1, 10, m_v=0, m_h=0, image_rows=rows,
                                 image_cols=[0])
        model = SbdModel.build(lat, recipe.hp, data["c_true"][rows, 0])
        streams = RngStreams(7)
        from sbdeconv.chain import init_state_from_prior
        from sbdeconv.gibbs import GibbsWorkspace, gibbs_sweep

        state = init_state_from_prior(model, data["d_obs"], streams)
        ws_sweep = GibbsWorkspace()
        for _ in range(1500):
            gibbs_sweep(state, model, streams, alpha=0.0, ws=ws_sweep)

        def grad(w):
            _, ws = potential(w, state, model)
            return grad_potential(w, ws, state, model)

        m_inv = state.sigma_w2 * model.blur.r_omega
        chol_r = model.blur.chol_r_omega
        sw = np.sqrt(state.sigma_w2)
        count = 0
        trials = 1000
        for trial in range(trials):
            if trial % 50 == 0 and trial:
                gibbs_sweep(state, model, streams, alpha=0.0, ws=ws_sweep)
                m_inv = state.sigma_w2 * model.blur.r_omega
                sw = np.sqrt(state.sigma_w2)
            z = streams.momentum.standard_normal(10)
            p0 = scipy.linalg.solve_triangular(chol_r, z, lower=True,
                                               trans="T") / sw
            u0, _ = potential(state.omega, state, model)
            h0 = u0 + 0.5 * state.sigma_w2 * p0 @ (model.blur.r_omega @ p0)
            w1, p1 = leapfrog(state.omega, p0, 0.001, 40, grad, m_inv)
            u1, _ = potential(w1, state, model)
            h1 = u1 + 0.5 * state.sigma_w2 * p1 @ (model.blur.r_omega @ p1)
            if abs(h1 - h0) < 0.5:
                count += 1
        assert count / trials >= 0.95

    def test_acceptance_invariant_under_momentum_flip(self):
        model = desk_model()
        state = desk_state(model)

        def grad(w):
            _, ws = potential(w, state, model)
            return grad_potential(w, ws, state, model)

        m_inv = state.sigma_w2 * model.blur.r_omega
        p0 = np.random.default_rng(5).standard_normal(model.lattice.blur_len)
        w1, p1 = leapfrog(state.omega, p0, 0.02, 10, grad, m_inv)

        def hamiltonian(w, p):
            u, _ = potential(w, state, model)
            return u + 0.5 * p @ (m_inv @ p)

        # kinetic energy is even in p: negating the final momentum leaves
        # the acceptance probability unchanged
        assert hamiltonian(w1, p1) == hamiltonian(w1, -p1)


class TestHmcUpdate:
    def test_zero_step_rejected_at_construction(self):
        with pytest.raises(ValueError):
            HmcConfig(10, 0.0)
        with pytest.raises(ValueError):
            HmcConfig(0, 0.1)

    def test_fixed_seed_replay(self):
        model = desk_model()
        cfg = HmcConfig(5, 0.05)
        results = []
        for _ in range(2):
            state = desk_state(model)
            streams = RngStreams(99)
            accepts, omegas = [], []
            for _ in range(20):
                res = hmc_update(state, model, cfg, streams)
                state.omega = res.omega
                state.w_star = embed_blur(res.omega, model.lattice)
                accepts.append(res.accepted)
                omegas.append(res.omega.copy())
            results.append((accepts, np.array(omegas)))
        assert results[0][0] == results[1][0]
        np.testing.assert_array_equal(results[0][1], results[1][1])

    def test_divergent_trajectory_auto_rejects(self):
        model = desk_model()
        state = desk_state(model)
        cfg = HmcConfig(30, 50.0)    # absurd step size
        streams = RngStreams(1)
        res = hmc_update(state, model, cfg, streams)
        assert not res.accepted
        np.testing.assert_array_equal(res.omega, state.omega)

    def test_failing_start_point_is_divergent(self, monkeypatch):
        model = desk_model()
        state = desk_state(model)
        start = state.omega.copy()

        def failing(omega, *args):
            if np.array_equal(omega, start):
                raise IndefiniteS("start point")
            return potential(omega, *args)

        monkeypatch.setattr(sbdeconv.hmc, "potential", failing)
        res = hmc_update(state, model, HmcConfig(5, 0.01), RngStreams(4))
        assert res.divergent and not res.accepted
        np.testing.assert_array_equal(res.omega, start)

    def test_one_potential_per_position(self, monkeypatch):
        model = desk_model()
        state = desk_state(model)
        calls = []

        def counting(*args):
            calls.append(None)
            return potential(*args)

        monkeypatch.setattr(sbdeconv.hmc, "potential", counting)
        for steps in (1, 5):
            calls.clear()
            res = hmc_update(state, model, HmcConfig(steps, 0.01), RngStreams(5))
            assert not res.divergent
            assert len(calls) == steps + 1

    def test_acceptance_rate_reasonable(self):
        model = desk_model()
        state = desk_state(model)
        cfg = HmcConfig(10, 0.01)
        streams = RngStreams(2)
        accepted = 0
        for _ in range(50):
            res = hmc_update(state, model, cfg, streams)
            state.omega = res.omega
            state.w_star = embed_blur(res.omega, model.lattice)
            accepted += res.accepted
        assert accepted / 50 > 0.5


class TestDualAveraging:
    def test_moves_toward_target(self):
        da = DualAveraging(0.1, target=0.65)
        for _ in range(50):
            da.update(0.1)     # acceptance too low: shrink the step
        assert da.adapted < 0.1
        da2 = DualAveraging(0.1, target=0.65)
        for _ in range(50):
            da2.update(0.99)   # acceptance too high: grow the step
        assert da2.adapted > 0.1
