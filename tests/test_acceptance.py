"""Acceptance criteria.

One test per criterion; each prints a single PASS/FAIL line with the
measured figure so a run of ``pytest tests/test_acceptance.py -v -s`` reads
as a checklist. Tolerances are fixed here, not calibrated elsewhere.
"""

import time

import numpy as np
import scipy.linalg
import scipy.stats

from sbdeconv.chain import SamplerConfig, init_state_from_prior, run_chain
from sbdeconv.diagnostics import (
    energy_distance_test,
    ess,
    msjd,
    rmse,
    sign_changes,
)
from sbdeconv.experiments import SimRecipe, constraint_sweep, simulate_dataset
from sbdeconv.gauss import (
    FourierGaussian,
    HardConstraint,
    RngStreams,
    condition_by_kriging,
    conditional_params,
    sample_fourier_gaussian,
)
from sbdeconv.gibbs import (
    GibbsWorkspace,
    blur_fc_params,
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
    sum_squares_data,
    zeta_conditional,
)
from sbdeconv.hmc import grad_potential, leapfrog, potential
from sbdeconv.model import (
    CorrelationSpec,
    HyperParams,
    LatticeSpec,
    ModelState,
    SbdModel,
    embed_blur,
    log_posterior_unnorm,
)
from sbdeconv.oracle import DenseModel, dense_logdet, fd_gradient

DESK_HP = HyperParams(blur=CorrelationSpec(1.5, 1.5))

#: extended-lattice grids named by the criteria: 8x3 and 12x4
GRID_LATTICES = {
    "8x3": dict(n_v_obs=6, n_h_obs=2, m_v=2, m_h=1),
    "12x4": dict(n_v_obs=10, n_h_obs=3, m_v=2, m_h=1),
}


def _report(name, ok, detail=""):
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def _grid_models():
    for label, dims in GRID_LATTICES.items():
        for k in (4, 6):
            for m in (0, 2, 4):
                rows = {0: (), 2: (2, 3), 4: (2, 3)}[m]
                cols = {0: (), 2: (1,), 4: (0, 1)}[m]
                lat = LatticeSpec.create(dims["n_v_obs"], dims["n_h_obs"], k,
                                         m_v=dims["m_v"], m_h=dims["m_h"],
                                         image_rows=rows, image_cols=cols)
                gen = np.random.default_rng(hash((label, k, m)) % 2**32)
                model = SbdModel.build(lat, DESK_HP,
                                       gen.standard_normal(lat.m) * 0.05)
                yield label, k, m, model, gen


def _random_state(model, gen):
    lat = model.lattice
    omega = gen.standard_normal(lat.blur_len) * 0.8
    c = gen.standard_normal((lat.n_v, lat.n_h)) * 0.05
    if lat.m:
        c[lat.image_pixels[:, 0], lat.image_pixels[:, 1]] = model.image.c_obs
    return ModelState(
        omega=omega, w_star=embed_blur(omega, lat), c=c,
        d=gen.standard_normal((lat.n_v, lat.n_h)) * 0.1,
        sigma_c2=0.002, sigma_w2=3.0, zeta=0.15, psi=model.hp.psi,
    )


def desk_problem():
    """The 8x3 / m=2 / k=6 desk problem with a fixed simulated dataset."""
    recipe = SimRecipe(n_v_obs=6, n_h_obs=2, blur_len=6, embed_factor=4,
                       seed=101, hp=DESK_HP)
    data = simulate_dataset(recipe)
    rows = np.array([2, 3])
    lat = LatticeSpec.create(6, 2, 6, m_v=2, m_h=1, image_rows=rows,
                             image_cols=[data["obs_col"]])
    model = SbdModel.build(lat, DESK_HP,
                           data["c_true"][rows, data["obs_col"]])
    return model, data


class TestOracleEquivalenceConditionals:
    def test_blur_and_image_fc_match_dense(self):
        t0 = time.perf_counter()
        worst = 0.0
        for label, k, m, model, gen in _grid_models():
            state = _random_state(model, gen)
            lat = model.lattice
            dm = DenseModel(model, state)
            d = np.ravel(state.d, order="F")

            mu_hat, eig_cov = blur_fc_params(state, model)
            mu = np.fft.ifft(mu_hat, norm="ortho").real
            base = np.fft.ifft(eig_cov).real
            idx = np.arange(lat.n_v)
            sig = base[(idx[None, :] - idx[:, None]) % lat.n_v]
            sigma_w = state.sigma_w2 * dm.r_w
            cross = sigma_w @ dm.gamma.T
            inner = dm.gamma @ cross + dm.sigma_d
            mu_ref = cross @ scipy.linalg.solve(inner, d, assume_a="pos")
            sig_ref = sigma_w - cross @ scipy.linalg.solve(inner, cross.T,
                                                           assume_a="pos")
            worst = max(worst,
                        np.abs(mu - mu_ref).max() / np.abs(mu_ref).max(),
                        np.abs(sig - sig_ref).max() / np.abs(sig_ref).max())

            mean_hat, eig_grid = image_fc_params(state, model)
            mu_i = np.ravel(np.fft.ifft2(mean_hat, norm="ortho").real,
                            order="F")
            base_i = np.fft.ifft2(eig_grid).real
            flat = np.arange(lat.n)
            ri, rj = flat % lat.n_v, flat // lat.n_v
            sig_i = base_i[(ri[:, None] - ri[None, :]) % lat.n_v,
                           (rj[:, None] - rj[None, :]) % lat.n_h]
            cross_i = state.sigma_c2 * dm.r_c @ dm.w_full.T
            inner_i = dm.w_full @ cross_i + dm.sigma_d
            mu_i_ref = cross_i @ scipy.linalg.solve(inner_i, d, assume_a="pos")
            sig_i_ref = state.sigma_c2 * dm.r_c - cross_i @ scipy.linalg.solve(
                inner_i, cross_i.T, assume_a="pos")
            worst = max(worst,
                        np.abs(mu_i - mu_i_ref).max() / np.abs(mu_i_ref).max(),
                        np.abs(sig_i - sig_i_ref).max() / np.abs(sig_i_ref).max())
        elapsed = time.perf_counter() - t0
        _report("oracle equivalence (blur/image conditionals)",
                worst < 1e-9 and elapsed < 30.0,
                f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


class TestOracleEquivalenceHmcPotential:
    def test_logdet_quadform_inverse(self):
        worst_ld, worst_qf, worst_inv = 0.0, 0.0, 0.0
        for label, k, m, model, gen in _grid_models():
            state = _random_state(model, gen)
            lat = model.lattice
            _, ws = potential(state.omega, state, model)
            dm = DenseModel(model, state)
            cov = dm.sigma_d_omega()

            logdet = float(np.sum(np.log(ws.lam_a)))
            if m:
                logdet += 2.0 * (np.log(np.diag(ws.chol_s)).sum()
                                 - np.log(np.diag(ws.chol_mc)).sum())
            worst_ld = max(worst_ld, abs(logdet - dense_logdet(cov))
                           / abs(dense_logdet(cov)))

            dbar = np.ravel(ws.dbar, order="F")
            quad = float(np.sum((np.abs(ws.dbar_hat) ** 2) / ws.lam_a))
            if m:
                quad += float(ws.q @ ws.s_inv_q)
            ref = dbar @ scipy.linalg.solve(cov, dbar, assume_a="pos")
            worst_qf = max(worst_qf, abs(quad - ref) / abs(ref))

            # structured inverse applied against the dense covariance
            flat = np.arange(lat.n)
            ri, rj = flat % lat.n_v, flat // lat.n_v
            shift = ((ri[:, None] - ri[None, :]) % lat.n_v,
                     (rj[:, None] - rj[None, :]) % lat.n_h)
            a_inv = np.fft.ifft2(1.0 / ws.lam_a).real[shift]
            inv = a_inv
            if m:
                lam_b = state.sigma_c2 * model.image.theta \
                    * ws.lam_w0[:, None] / ws.lam_a
                b_mat = np.fft.ifft2(lam_b).real[shift]
                sel = lat.image_flat_index()
                a_c = np.zeros((lat.m, lat.n))
                a_c[np.arange(lat.m), sel] = 1.0
                inv = a_inv + b_mat @ a_c.T @ ws.s_inv @ a_c @ b_mat.T
            worst_inv = max(worst_inv,
                            np.abs(inv @ cov - np.eye(lat.n)).max())
        ok = worst_ld < 1e-8 and worst_qf < 1e-8 and worst_inv < 1e-8
        _report("oracle equivalence (marginal potential)", ok,
                f"(logdet {worst_ld:.2e}, quadform {worst_qf:.2e}, "
                f"inverse {worst_inv:.2e})")


class TestGradientCorrectness:
    def test_gradient_vs_finite_differences(self):
        t0 = time.perf_counter()
        gen = np.random.default_rng(20240519)
        configs = 0
        worst = 0.0
        lattices = [(6, 2, 2, 1), (10, 3, 2, 1), (8, 2, 4, 2)]
        while configs < 20:
            n_v_obs, n_h_obs, m_v, m_h = lattices[configs % len(lattices)]
            k = int(gen.integers(3, 7))
            m_rows = int(gen.integers(0, 3))
            rows = tuple(sorted(gen.choice(n_v_obs, size=m_rows,
                                           replace=False))) if m_rows else ()
            cols = (int(gen.integers(0, n_h_obs)),) if m_rows else ()
            lat = LatticeSpec.create(n_v_obs, n_h_obs, k, m_v=m_v, m_h=m_h,
                                     image_rows=rows, image_cols=cols)
            model = SbdModel.build(lat, DESK_HP,
                                   gen.standard_normal(lat.m) * 0.05)
            state = _random_state(model, gen)
            state.sigma_c2 = float(np.exp(gen.uniform(-7, -4)))
            state.sigma_w2 = float(np.exp(gen.uniform(0, 2)))
            state.zeta = float(np.exp(gen.uniform(-3, -1)))

            _, ws = potential(state.omega, state, model)
            g = grad_potential(state.omega, ws, state, model)
            g_fd = fd_gradient(lambda w, s=state, mo=model: potential(w, s, mo)[0],
                               state.omega, 1e-5)
            rel = np.abs(g - g_fd) / np.maximum(np.abs(g_fd), 1e-8)
            worst = max(worst, rel.max())
            configs += 1
        elapsed = time.perf_counter() - t0
        _report("gradient correctness",
                worst < 1e-4 and elapsed < 60.0 and configs >= 20,
                f"({configs} configs, max rel err {worst:.2e}, {elapsed:.1f}s)")


class TestConstraintSatisfaction:
    def test_post_kriging_draws(self):
        model, data = desk_problem()
        lat = model.lattice
        streams = RngStreams(12)
        state = init_state_from_prior(model, data["d_obs"], streams)
        draws = 10_000
        ws = GibbsWorkspace()

        worst_blur = 0.0
        for _ in range(draws):
            w_star, _ = sample_blur_fc(state, model, streams.blur, ws)
            worst_blur = max(worst_blur, np.abs(w_star[lat.blur_free]).max())

        worst_img = 0.0
        px = lat.image_pixels
        for _ in range(draws):
            c = sample_image_fc(state, model, streams.image)
            worst_img = max(worst_img,
                            np.abs(c[px[:, 0], px[:, 1]]
                                   - model.image.c_obs).max())

        worst_data = 0.0
        d_obs = state.d[np.ix_(lat.data_rows, lat.data_cols)]
        for _ in range(draws):
            d = sample_aux_data_fc(state, model, streams.data)
            worst_data = max(worst_data,
                             np.abs(d[np.ix_(lat.data_rows, lat.data_cols)]
                                    - d_obs).max())
        ok = max(worst_blur, worst_img, worst_data) <= 1e-10
        _report("constraint satisfaction", ok,
                f"(blur {worst_blur:.1e}, image {worst_img:.1e}, "
                f"data {worst_data:.1e}; {draws} draws each)")


class TestDistributionalChecks:
    def test_kriging_moments(self):
        model, data = desk_problem()
        lat = model.lattice
        streams = RngStreams(5)
        state = init_state_from_prior(model, data["d_obs"], streams)

        mean_hat, eig_grid = image_fc_params(state, model)
        draws = 200_000
        g = FourierGaussian(mean_hat, eig_grid)
        fields = sample_fourier_gaussian(g, streams.image, size=draws)
        # column-major flattening of each draw
        flat = fields.transpose(0, 2, 1).reshape(draws, -1)

        base = np.fft.ifft2(eig_grid).real
        n = lat.n
        fi = np.arange(n)
        ri, rj = fi % lat.n_v, fi // lat.n_v
        sigma = base[(ri[:, None] - ri[None, :]) % lat.n_v,
                     (rj[:, None] - rj[None, :]) % lat.n_h]
        sel = lat.image_flat_index()
        constraint = HardConstraint(sel, model.image.c_obs)
        corrected = condition_by_kriging(flat, sigma[:, sel], constraint)

        mu = np.ravel(np.fft.ifft2(mean_hat, norm="ortho").real, order="F")
        mu_t, sigma_t = conditional_params(mu, sigma, sel, None,
                                           model.image.c_obs)
        sd = np.sqrt(np.maximum(np.diag(sigma_t), 0.0))
        mean_gap = np.abs(corrected.mean(axis=0) - mu_t)
        mean_ok = np.all(mean_gap <= 4 * sd / np.sqrt(draws) + 1e-12)
        emp_cov = np.cov(corrected.T)
        cov_bound = 4 * (np.outer(sd, sd) + np.abs(sigma_t)) / np.sqrt(draws)
        cov_ok = np.all(np.abs(emp_cov - sigma_t) <= cov_bound + 1e-12)
        _report("distributional (Kriging moments)", mean_ok and cov_ok,
                f"(max mean gap {mean_gap.max():.2e}, {draws} draws)")

    def test_variance_conditionals_ks(self):
        model, data = desk_problem()
        streams = RngStreams(6)
        state = init_state_from_prior(model, data["d_obs"], streams)
        ssd = sum_squares_data(state, model)
        results = []
        for cond, sampler, stream in (
            (sigma_w_conditional, sample_sigma_w, streams.sigma_w),
            (sigma_c_conditional, sample_sigma_c, streams.sigma_c),
            (zeta_conditional, sample_zeta, streams.zeta),
        ):
            alpha, beta = cond(state, model, ssd)
            draws = np.array([sampler(state, model, ssd, stream)
                              for _ in range(5000)])
            p = scipy.stats.kstest(draws / beta, "invgamma",
                                   args=(alpha,)).pvalue
            results.append(p)
        ok = all(p > 0.01 for p in results)
        _report("distributional (variance conditionals KS)", ok,
                f"(p-values {[f'{p:.3f}' for p in results]})")


class TestSignShiftSymmetry:
    def test_exact_invariance_and_locked_mode(self):
        # exact symmetry of the unnormalized posterior and the potential
        lat = LatticeSpec.create(6, 2, 6, m_v=2, m_h=1)
        model = SbdModel.build(lat, DESK_HP, [])
        gen = np.random.default_rng(3)
        state = _random_state(model, gen)
        lp = log_posterior_unnorm(state, model)
        flipped = state.copy()
        flipped.omega, flipped.w_star = -state.omega, -state.w_star
        flipped.c = -state.c
        gap_lp = abs(lp - log_posterior_unnorm(flipped, model))
        u_p, _ = potential(state.omega, state, model)
        u_m, _ = potential(-state.omega, state, model)
        gap_u = abs(u_p - u_m)
        sym_ok = gap_lp <= 1e-12 * max(1.0, abs(lp)) and \
            gap_u <= 1e-12 * max(1.0, abs(u_p))

        # fully observed 24x1 image: both samplers stay in one mode
        recipe = SimRecipe(n_v_obs=24, n_h_obs=1, blur_len=10, embed_factor=1,
                           seed=6)
        data = simulate_dataset(recipe)
        lat24 = LatticeSpec.create(24, 1, 10, m_v=0, m_h=0,
                                   image_rows=range(24), image_cols=[0])
        model24 = SbdModel.build(lat24, recipe.hp, data["c_true"][:, 0])
        flips = {}
        for alpha, seed in ((0.0, 31), (1.0, 32)):
            cfg = SamplerConfig(alpha=alpha, iterations=4000, burn_in=1000,
                                seed=seed, hmc_steps=10, hmc_step_size=0.01)
            out = run_chain(model24, data["d_obs"], cfg)
            flips[alpha] = sign_changes(out.omega[:, 5])
        locked_ok = flips[0.0] == 0 and flips[1.0] == 0
        _report("sign-shift symmetry", sym_ok and locked_ok,
                f"(posterior gap {gap_lp:.1e}, potential gap {gap_u:.1e}, "
                f"m=24 flips {flips})")

    def test_mode_visits_soft_expectation(self):
        # qualitative ordering for m <= 4 is logged, never hard-failed
        result = constraint_sweep(m_values=[0, 2, 4], seed=13,
                                  iterations=3000, burn_in=1000,
                                  hmc_steps=15, hmc_step_size=0.05,
                                  max_lag=500)
        gibbs = {r["m"]: r["mode_visits"] for r in result["table"]
                 if r["alpha"] == 0.0}
        hmc = {r["m"]: r["mode_visits"] for r in result["table"]
               if r["alpha"] == 1.0}
        lines = []
        for m in sorted(gibbs):
            status = "ok" if hmc[m] >= gibbs[m] else "violated (logged)"
            lines.append(f"m={m}: HMC {hmc[m]} vs Gibbs {gibbs[m]} [{status}]")
        _report("sign-shift soft expectation (mode visits, logged)", True,
                "; ".join(lines))


class TestSamplerCrossAgreement:
    def test_gibbs_vs_hmc_blur_marginals(self):
        # Both lanes deliver 2e4 post-burn-in draws. The blur coordinate
        # mode-switches with an integrated autocorrelation time of a few
        # hundred sweeps, so the Gibbs lane thins in-chain to span enough
        # sweeps, the test subsamples both lanes, and contiguous blocks are
        # permuted as units to keep the null honestly sized.
        t0 = time.perf_counter()
        model, data = desk_problem()
        cfg_g = SamplerConfig(alpha=0.0, iterations=105_000, burn_in=5_000,
                              thin=5, seed=21)
        out_g = run_chain(model, data["d_obs"], cfg_g)
        cfg_h = SamplerConfig(alpha=1.0, iterations=25_000, burn_in=5_000,
                              seed=23, hmc_steps=5, hmc_step_size=0.05)
        out_h = run_chain(model, data["d_obs"], cfg_h)
        assert len(out_g.omega) == 20_000 and len(out_h.omega) == 20_000
        x = out_g.omega[::100]
        y = out_h.omega[::100]
        stat, p = energy_distance_test(x, y, n_perm=199,
                                       rng=np.random.default_rng(2), block=10)
        elapsed = time.perf_counter() - t0
        _report("sampler cross-agreement", p > 0.01 and elapsed < 600.0,
                f"(energy stat {stat:.2f}, p {p:.3f}, "
                f"accept {out_h.counters['hmc_accept'] / out_h.counters['blur_hmc']:.2f}, "
                f"{elapsed:.0f}s)")


class TestIntegratorOrder:
    def test_energy_error_halving(self):
        model, data = desk_problem()
        streams = RngStreams(17)
        state = init_state_from_prior(model, data["d_obs"], streams)
        ws = GibbsWorkspace()
        for _ in range(800):
            gibbs_sweep(state, model, streams, alpha=0.0, ws=ws)

        def grad(w):
            _, wk = potential(w, state, model)
            return grad_potential(w, wk, state, model)

        m_inv = state.sigma_w2 * model.blur.r_omega
        chol_r = model.blur.chol_r_omega
        sw = np.sqrt(state.sigma_w2)

        def median_dh(eps, steps, n=200):
            vals = []
            for _ in range(n):
                z = streams.momentum.standard_normal(model.lattice.blur_len)
                p0 = scipy.linalg.solve_triangular(chol_r, z, lower=True,
                                                   trans="T") / sw
                u0, _ = potential(state.omega, state, model)
                h0 = u0 + 0.5 * state.sigma_w2 * p0 @ (model.blur.r_omega @ p0)
                w1, p1 = leapfrog(state.omega, p0, eps, steps, grad, m_inv)
                u1, _ = potential(w1, state, model)
                h1 = u1 + 0.5 * state.sigma_w2 * p1 @ (model.blur.r_omega @ p1)
                vals.append(abs(h1 - h0))
            return float(np.median(vals))

        coarse = median_dh(0.04, 8)
        fine = median_dh(0.02, 16)
        ratio = coarse / fine
        _report("integrator order", 3.0 <= ratio <= 5.0,
                f"(median |dH| {coarse:.2e} -> {fine:.2e}, ratio {ratio:.2f})")


class TestDiagnosticsCriterion:
    def test_ess_msjd_rmse(self):
        # the no-truncation estimator summed over 1500 lags is noisy at
        # N=2e5, so the criterion is judged on the median of three traces
        r, n = 0.9, 200_000
        ratios = []
        for seed in (1, 42, 123):
            gen = np.random.default_rng(seed)
            x = np.empty(n)
            x[0] = gen.standard_normal()
            innov = gen.standard_normal(n) * np.sqrt(1 - r * r)
            for t in range(1, n):
                x[t] = r * x[t - 1] + innov[t]
            ratios.append(ess(x, max_lag=1500) / n)
        ratio = float(np.median(ratios))
        ess_ok = abs(ratio - 1 / 19) / (1 / 19) < 0.20

        gen = np.random.default_rng(9)
        y = gen.standard_normal(5001)
        jumps = np.array([(y[i + 1] - y[i]) ** 2 for i in range(len(y) - 1)])
        msjd_ok = msjd(y) == np.sum(jumps) / len(y)
        devs = np.array([(v - 0.25) ** 2 for v in y])
        rmse_ok = rmse(y, 0.25) == np.sqrt(np.sum(devs) / len(y))
        _report("diagnostics", ess_ok and msjd_ok and rmse_ok,
                f"(AR(1) ESS median ratio {ratio:.4f} vs 1/19={1/19:.4f}; "
                f"MSJD/RMSE exact: {msjd_ok}/{rmse_ok})")


class TestScalingSmoke:
    def test_large_lattice_single_steps(self):
        lat = LatticeSpec.create(330, 50, blur_len=126, m_v=150, m_h=50,
                                 image_rows=range(330), image_cols=[25])
        assert (lat.n_v, lat.n_h, lat.m) == (480, 100, 330)
        gen = np.random.default_rng(0)
        model = SbdModel.build(lat, HyperParams(),
                               gen.standard_normal(330) * 0.03)
        streams = RngStreams(1)
        state = init_state_from_prior(model,
                                      gen.standard_normal((330, 50)) * 0.1,
                                      streams)
        t0 = time.perf_counter()
        gibbs_sweep(state, model, streams, alpha=0.0, ws=GibbsWorkspace())
        t_sweep = time.perf_counter() - t0

        def grad(w):
            _, wk = potential(w, state, model)
            return grad_potential(w, wk, state, model)

        m_inv = state.sigma_w2 * model.blur.r_omega
        p0 = streams.momentum.standard_normal(126)
        t0 = time.perf_counter()
        leapfrog(state.omega, p0, 1e-6, 1, grad, m_inv)
        t_leap = time.perf_counter() - t0
        _report("scaling smoke (480x100, k=126, m=330)",
                t_sweep < 60.0 and t_leap < 60.0,
                f"(sweep {t_sweep:.1f}s, leapfrog step {t_leap:.1f}s)")
