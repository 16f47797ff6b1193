"""Experiment harness: initial data, rate fits, mini sweeps, front tracking."""

import numpy as np
import pytest

from hnslab.experiments import (
    BumpSpec,
    InitialDataSpec,
    InvalidWindowError,
    SweepConfig,
    build_initial_data,
    finite_speed_experiment,
    fit_rate,
    support_radius,
    sweep_alpha,
    sweep_epsilon,
    taylor_green,
)
from hnslab.solvers import Model, ModelParams
from hnslab.spectral import (
    GridSpec,
    PhysicalField,
    SpectralField,
    _full,
    dealias,
    divergence,
    random_band_limited,
    sobolev_norm,
    to_physical,
)


class TestInitialData:
    def test_zero_reference_gives_zero(self, grid2d):
        params = ModelParams(Model.HNS_EPS, epsilon=1.0)
        spec = InitialDataSpec(kind="random", seed=3, amplitude=0.0, epsilon_cutoff=True)
        u0, u1 = build_initial_data(spec, grid2d, params)
        assert sobolev_norm(u0, 0.0) == 0.0
        assert sobolev_norm(u1, 0.0) == 0.0

    def test_cutoff_removes_everything_at_eps_one(self, grid2d):
        # sqrt(eps)|k| >= 1 kills all modes when eps = 1 and |k| >= 1
        params = ModelParams(Model.HNS_EPS, epsilon=1.0)
        spec = InitialDataSpec(kind="random", seed=3, epsilon_cutoff=True)
        u0, _ = build_initial_data(spec, grid2d, params)
        assert sobolev_norm(u0, 0.0) == 0.0

    def test_divergence_free_and_mean_zero(self, grid2d):
        params = ModelParams(Model.HNS_EPS, epsilon=1e-2)
        for kind in ("random", "taylor_green"):
            spec = InitialDataSpec(kind=kind, seed=5)
            u0, _ = build_initial_data(spec, grid2d, params)
            assert u0.is_mean_zero
            assert sobolev_norm(divergence(u0), 0.0) <= 1e-12 * max(sobolev_norm(u0, 1.0), 1e-300)

    def test_deterministic_given_seed(self, grid2d):
        params = ModelParams(Model.HNS_EPS, epsilon=1e-2)
        spec = InitialDataSpec(kind="random", seed=11)
        a, _ = build_initial_data(spec, grid2d, params)
        b, _ = build_initial_data(spec, grid2d, params)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_tail_ratio_bounded_over_eps(self, grid2d_64):
        # spectral tail-sum oracle: |u0 - v0|_{H^(n/2-1)} computed directly
        # from the removed coefficients, ratio to eps^(s/2) bounded
        s = 0.5
        v0 = dealias(
            random_band_limited(
                grid2d_64, np.random.default_rng(2), ncomp=2, decay=2.0, divergence_free=True
            )
        )
        n = grid2d_64.n_per_axis
        kx, ky = np.meshgrid(*[np.fft.fftfreq(n, 1.0 / n)] * 2, indexing="ij")
        ka = grid2d_64.k_fundamental * np.sqrt(kx**2 + ky**2)
        full = _full(v0.coeffs)
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            params = ModelParams(Model.HNS_EPS, epsilon=eps, s=s)
            removed = np.sqrt(eps) * ka >= 1.0
            tail_sq = grid2d_64.domain_length**2 * float(np.sum(np.abs(full[:, removed]) ** 2))
            spec = InitialDataSpec(kind="random", seed=2, decay=2.0, epsilon_cutoff=True)
            u0, _ = build_initial_data(spec, grid2d_64, params)
            diff = sobolev_norm(u0 - v0, 0.0)
            assert np.isclose(diff, np.sqrt(tail_sq), rtol=1e-10)
            assert diff / eps ** (s / 2.0) < 10.0

    def test_file_round_trip(self, grid2d, rng, tmp_path):
        from hnslab.spectral import write_snapshot

        field = dealias(random_band_limited(grid2d, rng, ncomp=2, divergence_free=True))
        path = tmp_path / "ic.hnsf"
        write_snapshot(path, field)
        params = ModelParams(Model.HNS_EPS, epsilon=1e-2)
        u0, _ = build_initial_data(InitialDataSpec(kind="file", path=str(path)), grid2d, params)
        assert sobolev_norm(u0 - field, 0.0) <= 1e-12 * sobolev_norm(field, 0.0)

    def test_file_on_configured_grid(self, grid2d, rng, tmp_path):
        from hnslab.spectral import dealias_mask, write_snapshot

        field = random_band_limited(grid2d, rng, ncomp=2, divergence_free=True)
        path = tmp_path / "ic.hnsf"
        write_snapshot(path, field)
        params = ModelParams(Model.HNS_EPS, epsilon=1e-2)
        spec = InitialDataSpec(kind="file", path=str(path))
        for other in (GridSpec(2, 64), GridSpec(3, 32), GridSpec(2, 32, domain_length=1.0)):
            with pytest.raises(ValueError, match="configured grid"):
                build_initial_data(spec, other, params)
        half = GridSpec(2, 32, dealias_fraction=0.5)
        u0, u1 = build_initial_data(spec, half, params)
        assert u0.grid == half and u1.grid == half
        assert np.all(u0.coeffs[:, ~dealias_mask(half)] == 0)
        assert np.any(field.coeffs[:, ~dealias_mask(half)] != 0)


class TestFitRate:
    def test_exact_half_power(self):
        fit = fit_rate([(x, x**0.5) for x in (1e-1, 1e-2, 1e-3)])
        assert np.isclose(fit.slope, 0.5) and np.isclose(fit.r_squared, 1.0)

    def test_constant_slope_zero(self):
        fit = fit_rate([(x, 2.0) for x in (1e-1, 1e-2, 1e-3)])
        assert abs(fit.slope) < 1e-12

    def test_noisy_regression(self):
        rng = np.random.default_rng(0)
        pts = [(x, 3 * x**0.5 * (1 + 0.01 * rng.normal())) for x in np.logspace(-4, -1, 7)]
        fit = fit_rate(pts)
        assert 0.45 <= fit.slope <= 0.55
        assert fit.r_squared >= 0.99

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0), (0.1, 0.5)])
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0), (0.1, -0.5), (0.01, 0.1)])


class TestSweepConfig:
    def test_validation(self, grid2d):
        fixed = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-2, alpha=1e-1)
        data = InitialDataSpec(kind="taylor_green")
        with pytest.raises(ValueError):
            SweepConfig("alpha", (1e-1, 1e-2), fixed, data, 0.1, grid2d, 1)
        with pytest.raises(ValueError):
            SweepConfig("alpha", (1e-2, 1e-1, 1e-3), fixed, data, 0.1, grid2d, 1)
        with pytest.raises(ValueError):
            SweepConfig("alpha", (1e-1, 5e-2, 2e-2), fixed, data, 0.1, grid2d, 1)
        with pytest.raises(ValueError):  # T_final off the snapshot raster
            SweepConfig("alpha", (1e-1, 1e-2, 1e-3), fixed, data, 0.11, grid2d, 1,
                        snapshot_every_t=0.025)

    def test_misaligned_explicit_dt_rejected(self, grid2d):
        fixed = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-2, alpha=1e-1)
        cfg = SweepConfig(
            "alpha", (1e-1, 1e-2, 1e-3), fixed, InitialDataSpec(kind="taylor_green"),
            0.1, grid2d, 1, snapshot_every_t=0.025, dt=0.011,
        )
        with pytest.raises(ValueError, match="does not divide"):
            sweep_alpha(cfg)


class TestSweeps:
    def _alpha_cfg(self, grid, values=(1e-1, 1e-2, 1e-3), T=0.2):
        fixed = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-2, alpha=values[0])
        return SweepConfig(
            sweep_variable="alpha",
            values=values,
            fixed=fixed,
            initial_data=InitialDataSpec(kind="taylor_green", amplitude=1.0),
            T_final=T,
            grid=grid,
            seed=42,
            snapshot_every_t=0.025,
        )

    def test_divfree_linear_sentinel(self, grid2d):
        # nonlinearity cannot be switched off through SweepConfig; emulate the
        # sentinel directly: div-free data, no forcing -> Q never excited
        from hnslab.solvers import StepperConfig, run_simulation

        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-2, alpha=1e-3)
        u0 = taylor_green(grid2d)
        cfg = StepperConfig(dt=1e-3, t_end=0.05)
        res = run_simulation(u0, None, params, cfg, nonlinearity=False)
        assert sobolev_norm(divergence(res.final.u), 0.0) <= 1e-10 * sobolev_norm(u0, 0.0)

    def test_alpha_sweep_shape_and_monotonicity(self, grid2d):
        cfg = self._alpha_cfg(grid2d)
        res = sweep_alpha(cfg)
        assert [p.value for p in res.points] == list(cfg.values)
        sup = [p.sup_modulated_energy for p in res.points]
        # monotone response with 5% slack between adjacent points
        assert all(sup[i + 1] <= sup[i] * 1.05 for i in range(len(sup) - 1))
        assert "modulated_energy" in res.fits and "div_l2t_l2" in res.fits

    def test_alpha_sweep_deterministic_csv(self, grid2d):
        cfg = self._alpha_cfg(grid2d)
        a = sweep_alpha(cfg).to_csv()
        b = sweep_alpha(cfg).to_csv()
        assert a == b
        header = a.splitlines()[0]
        assert header == (
            "sweep_var,value,T_final,sup_modulated_energy,div_l2t_l2,"
            "sup_sobolev_diff_sq,run_id"
        )
        assert len(a.splitlines()) == 1 + len(cfg.values) + 1  # header + points + fit row

    def test_single_mode_epsilon_rate_two_ode_oracle(self, grid2d):
        # nonlinearity off, u0 = v0 = one div-free mode: the measured
        # sup-in-time squared difference must reproduce the rate of the
        # closed-form pair (heat decay vs damped-wave mode solution)
        from hnslab.solvers import StepperConfig, evolve_linear, run_simulation
        from hnslab.spectral import helmholtz_project, single_mode

        from test_solvers import damped_mode_oracle

        u0 = helmholtz_project(single_mode(grid2d, (0, 2), component=0, ncomp=2), "P")
        u0 = dealias(u0)
        T, k2 = 0.5, 4.0
        samples = np.linspace(0.0, T, 21)
        amp2 = sobolev_norm(u0, 0.0) ** 2

        measured = []
        oracle = []
        for eps in (1e-2, 1e-3, 1e-4):
            params = ModelParams(Model.HNS_EPS, epsilon=eps)
            sup_m = max(
                sobolev_norm(
                    evolve_linear(u0, SpectralField.zeros(grid2d, 2), params, float(t)).u
                    - np.exp(-k2 * float(t)) * u0,
                    0.0,
                )
                ** 2
                for t in samples
            )
            sup_o = max(
                (damped_mode_oracle(float(t), eps, k2 / eps, 1.0, 0.0)[0] - np.exp(-k2 * float(t)))
                ** 2
                for t in samples
            ) * amp2
            measured.append((eps, sup_m))
            oracle.append((eps, sup_o))
        fit_m = fit_rate(measured)
        fit_o = fit_rate(oracle)
        assert np.isclose(fit_m.slope, fit_o.slope, atol=1e-6)
        for (_, m), (_, o) in zip(measured, oracle):
            assert np.isclose(m, o, rtol=1e-8)

    def test_identical_models_sentinel_zero_difference(self, grid2d, rng):
        # the difference probe applied to two runs of the same model with the
        # same dt is identically zero
        from hnslab.solvers import StepperConfig, run_simulation

        ns = ModelParams(Model.NS)
        u0 = dealias(random_band_limited(grid2d, rng, ncomp=2, divergence_free=True))
        cfg = StepperConfig(dt=5e-3, t_end=0.1, snapshot_every=4)
        a = run_simulation(u0, None, ns, cfg, keep_states=True)
        b = run_simulation(u0, None, ns, cfg, keep_states=True)
        diffs = [
            sobolev_norm(x.u - y.u, 0.0) ** 2 for x, y in zip(a.states, b.states)
        ]
        assert max(diffs) == 0.0

    def test_epsilon_sweep_mini(self, grid2d):
        fixed = ModelParams(Model.HNS_EPS, epsilon=1e-1, s=0.5, delta=0.5)
        cfg = SweepConfig(
            sweep_variable="epsilon",
            values=(1e-1, 1e-2, 1e-3),
            fixed=fixed,
            initial_data=InitialDataSpec(kind="random", seed=7, decay=3.0, amplitude=0.5),
            T_final=0.2,
            grid=grid2d,
            seed=7,
            snapshot_every_t=0.025,
        )
        res = sweep_epsilon(cfg)
        diffs = [p.sup_sobolev_diff_sq for p in res.points]
        assert all(np.isfinite(d) and d > 0 for d in diffs)
        assert diffs[0] > diffs[-1]  # smaller eps, closer to NS
        assert "sobolev_diff_sq" in res.fits


class TestFiniteSpeed:
    def test_c1_formula(self):
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-2, alpha=1e-2)
        assert np.isclose(params.c1, 100.4987562112089, atol=1e-6)

    def test_zero_data_empty_support(self, grid2d):
        f = PhysicalField(grid2d, np.zeros((2, *grid2d.shape)))
        assert support_radius(f, (np.pi, np.pi), 1e-8) == 0.0

    def test_support_radius_torus_metric(self):
        g = GridSpec(2, 32)
        vals = np.zeros((1, *g.shape))
        vals[0, 0, 0] = 1.0  # at the origin; center at (pi, pi) is antipodal
        f = PhysicalField(g, vals)
        r = support_radius(f, (np.pi, np.pi), 0.5)
        assert np.isclose(r, np.sqrt(2) * np.pi, rtol=1e-12)

    def test_pure_wave_front_speeds(self):
        grid = GridSpec(2, 256)
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-2, alpha=1e-2)
        q = finite_speed_experiment(params, grid, BumpSpec("gradient"), damping=False)
        assert q.slope_bound_satisfied
        assert abs(q.measured_speed - params.c1) <= 0.05 * params.c1
        p = finite_speed_experiment(params, grid, BumpSpec("solenoidal"), damping=False)
        assert p.slope_bound_satisfied
        assert abs(p.measured_speed - params.c2) <= 0.05 * params.c2

    def test_cone_bound_with_damping(self):
        grid = GridSpec(2, 256)
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-2, alpha=1e-2)
        rep = finite_speed_experiment(params, grid, BumpSpec("mixed"), damping=True)
        assert rep.slope_bound_satisfied
        assert all(
            r <= b for r, b in zip(rep.support_radius, rep.bound_radius)
        )
        # radius non-decreasing up to wrap-around (within one grid cell)
        h = grid.spacing
        assert all(
            rep.support_radius[i + 1] >= rep.support_radius[i] - h
            for i in range(len(rep.support_radius) - 1)
        )

    def test_unknown_bump_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown bump kind"):
            BumpSpec("bogus")

    def test_wraparound_detected(self):
        grid = GridSpec(2, 128)
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-2, alpha=1e-2)
        with pytest.raises(InvalidWindowError):
            finite_speed_experiment(
                params, grid, BumpSpec("gradient"), damping=False, t_end=10.0
            )

    def test_front_csv(self):
        grid = GridSpec(2, 128)
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-1, alpha=1e-1)
        rep = finite_speed_experiment(params, grid, BumpSpec("gradient"), damping=False, n_samples=4)
        lines = rep.to_csv().splitlines()
        assert lines[0] == "time,support_radius,bound_radius"
        assert len(lines) == 1 + 5
