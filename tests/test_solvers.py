"""Solver contracts: propagators, steppers, pressure, Picard iteration."""

import tracemalloc

import numpy as np
import pytest

from hnslab.solvers import (
    BlowUpError,
    ContractionFailureError,
    Model,
    ModelParams,
    Scheme,
    SolverState,
    StabilityError,
    StepperConfig,
    _check_blowup,
    evolve_linear,
    nonlinear_term,
    picard_local_solve,
    picard_time_bound,
    run_simulation,
    step,
)
from hnslab.spectral import (
    GridSpec,
    PhysicalField,
    SpectralField,
    dealias,
    divergence,
    gradient,
    helmholtz_project,
    k_squared,
    partial_derivative,
    random_band_limited,
    single_mode,
    sobolev_norm,
    to_physical,
    to_spectral,
)


def damped_mode_oracle(t, eps, c2k2, a0, b0):
    """Independent characteristic-root oracle for eps l'' + l' + eps c2k2 l = 0.

    Written via the explicit quadratic roots, not the implementation's
    cosh/sinh route.  Valid away from the double root.
    """
    disc = complex(1.0 - 4.0 * eps * eps * c2k2)
    rp = (-1.0 + np.sqrt(disc)) / (2.0 * eps)
    rm = (-1.0 - np.sqrt(disc)) / (2.0 * eps)
    A = (rp * np.exp(rm * t) - rm * np.exp(rp * t)) / (rp - rm)
    B = (np.exp(rp * t) - np.exp(rm * t)) / (rp - rm)
    Ap = rp * rm * (np.exp(rm * t) - np.exp(rp * t)) / (rp - rm)
    Bp = (rp * np.exp(rp * t) - rm * np.exp(rm * t)) / (rp - rm)
    return (A * a0 + B * b0).real, (Ap * a0 + Bp * b0).real


def spectral_product(F, G):
    """Collocation (grid) product of two fields, dealiased with the 2/3 mask."""
    vals = to_physical(F).values * to_physical(G).values
    return dealias(to_spectral(PhysicalField(F.grid, vals)))


def recover_pressure(u):
    """p = -Lap^{-1} div((u.grad)u), zero-mean; grad p = Q f(u) for div-free u."""
    conv = -1.0 * nonlinear_term(u)  # (u.grad)u
    k2 = k_squared(u.grid)
    inv = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)
    return SpectralField(u.grid, divergence(conv).coeffs * inv, is_mean_zero=True)


def convective_oracle(u):
    """-(u.grad)u in the direct convective form -sum_i u_i d_i u, one product per axis."""
    out = SpectralField.zeros(u.grid, u.grid.dim)
    for i in range(u.grid.dim):
        out = out + spectral_product(u.component(i), partial_derivative(u, i))
    return -1.0 * out


class TestModelParams:
    def test_field_presence_rules(self):
        with pytest.raises(ValueError):
            ModelParams(Model.NS, epsilon=0.1)
        with pytest.raises(ValueError):
            ModelParams(Model.HNS_EPS, epsilon=0.1, alpha=0.1)
        with pytest.raises(ValueError):
            ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.1)
        with pytest.raises(ValueError):
            ModelParams(Model.HNS_EPS, epsilon=0.1, viscosity=2.0)

    def test_speeds(self):
        p = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-2, alpha=1e-2)
        assert np.isclose(p.c1, np.sqrt(1.01 / 1e-4))
        assert np.isclose(p.c2, 10.0)
        assert p.c1 > p.c2


class TestNonlinearTerm:
    def test_zero(self, grid2d):
        out = nonlinear_term(SpectralField.zeros(grid2d, 2))
        assert sobolev_norm(out, 0.0) == 0.0

    def test_dual_formulation_divfree(self, grid2d, rng):
        u = dealias(random_band_limited(grid2d, rng, ncomp=2, divergence_free=True))
        a = nonlinear_term(u)
        b = convective_oracle(u)
        assert sobolev_norm(a - b, 0.0) <= 1e-10 * sobolev_norm(a, 0.0)

    def test_taylor_green_is_pure_gradient(self, grid2d):
        x, y = grid2d.meshgrid()
        vals = np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)])
        u = to_spectral(PhysicalField(grid2d, vals))
        N = nonlinear_term(u)
        assert sobolev_norm(helmholtz_project(N, "P"), 0.0) <= 1e-12 * sobolev_norm(N, 0.0)
        # closed form: -(u.grad)u = -(sin 2x, sin 2y)/2
        expect = np.stack([-np.sin(2 * x) / 2, -np.sin(2 * y) / 2])
        got = to_physical(N).values
        assert np.max(np.abs(got - expect)) < 1e-12


class TestLinearPropagator:
    """Undamped wave propagators A(t), B(t) through evolve_linear(..., damping=False)."""

    def test_t_zero_identity(self, grid2d, rng):
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.1, alpha=0.2)
        F = random_band_limited(grid2d, rng, ncomp=2)
        z = SpectralField.zeros(grid2d, 2)
        assert sobolev_norm(evolve_linear(F, z, params, 0.0, damping=False).u - F, 0.0) <= 1e-14
        assert sobolev_norm(evolve_linear(z, F, params, 0.0, damping=False).u, 0.0) <= 1e-14

    def test_divfree_mode_cosine(self, grid2d):
        # A(t) on the P branch is cos(t |k| / sqrt(eps))
        eps, t = 0.04, 0.37
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=eps, alpha=0.5)
        u = helmholtz_project(single_mode(grid2d, (0, 3), component=0, ncomp=2), "P")
        out = evolve_linear(u, SpectralField.zeros(grid2d, 2), params, t, damping=False).u
        expected = np.cos(t * 3.0 / np.sqrt(eps))
        nz = np.abs(u.coeffs) > 1e-14
        assert np.allclose(out.coeffs[nz] / u.coeffs[nz], expected, rtol=1e-12)

    def test_irrotational_mode_sine_over(self, grid2d):
        # B(t) on the Q branch is sin(c1 t |k|) / (c1 |k|)
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.01, alpha=0.01)
        c1, t = params.c1, 0.003
        phi = single_mode(grid2d, (2, 1))
        u = gradient(phi)
        out = evolve_linear(SpectralField.zeros(grid2d, 2), u, params, t, damping=False).u
        kmag = np.sqrt(5.0)
        expected = np.sin(c1 * t * kmag) / (c1 * kmag)
        nz = np.abs(u.coeffs) > 1e-14
        assert np.allclose(out.coeffs[nz] / u.coeffs[nz], expected, rtol=1e-10)


class TestStep:
    def test_zero_state_stays_zero(self, grid2d):
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.1, alpha=0.1)
        cfg = StepperConfig(dt=1e-2, t_end=1e-2)
        st = SolverState(SpectralField.zeros(grid2d, 2), SpectralField.zeros(grid2d, 2), 0.0)
        out = step(st, params, cfg)
        assert sobolev_norm(out.u, 0.0) == 0.0
        assert sobolev_norm(out.u_t, 0.0) == 0.0

    @pytest.mark.parametrize("eps,alpha", [(1e-1, 1e-1), (1e-1, 1e-3), (1e-2, 1e-1), (1e-2, 1e-3)])
    def test_linear_exactness_100_steps_vs_oracle(self, grid2d, eps, alpha):
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=eps, alpha=alpha)
        u0 = helmholtz_project(single_mode(grid2d, (0, 2), component=0, ncomp=2), "P")
        cfg = StepperConfig(dt=5e-3, t_end=0.5)
        res = run_simulation(u0, None, params, cfg, nonlinearity=False)
        a, _ = damped_mode_oracle(0.5, eps, 4.0 / eps, 1.0, 0.0)
        nz = np.abs(dealias(u0).coeffs) > 1e-14
        got = res.final.u.coeffs[nz] / dealias(u0).coeffs[nz]
        assert np.allclose(got, a, atol=1e-8)

    def test_q_mode_linear_exactness(self, grid2d):
        eps, alpha = 1e-2, 1e-3
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=eps, alpha=alpha)
        u0 = dealias(gradient(single_mode(grid2d, (1, 2))))
        cfg = StepperConfig(dt=1e-3, t_end=0.1)
        res = run_simulation(u0, None, params, cfg, nonlinearity=False)
        c2k2 = params.c1 ** 2 * 5.0
        a, _ = damped_mode_oracle(0.1, eps, c2k2, 1.0, 0.0)
        nz = np.abs(u0.coeffs) > 1e-12
        assert np.allclose(res.final.u.coeffs[nz] / u0.coeffs[nz], a, atol=1e-8)

    def test_penalty_inert_on_divfree_linear(self, grid2d, rng):
        # with nonlinearity off and div-free data, HNS_EPS and HNS_EPS_ALPHA
        # trajectories coincide (the Q branch is empty)
        u0 = dealias(random_band_limited(grid2d, rng, ncomp=2, divergence_free=True))
        cfg = StepperConfig(dt=2e-3, t_end=0.1)
        pa = ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.05, alpha=1e-3)
        pb = ModelParams(Model.HNS_EPS, epsilon=0.05)
        ra = run_simulation(u0, None, pa, cfg, nonlinearity=False)
        rb = run_simulation(u0, None, pb, cfg, nonlinearity=False)
        diff = sobolev_norm(ra.final.u - rb.final.u, 0.0)
        assert diff <= 1e-12 * sobolev_norm(rb.final.u, 0.0)

    def test_ns_preserves_divergence(self, grid2d, rng):
        params = ModelParams(Model.NS)
        u0 = dealias(random_band_limited(grid2d, rng, ncomp=2, divergence_free=True))
        cfg = StepperConfig(dt=5e-3, t_end=0.25, snapshot_every=5)
        probes = {"div": lambda st: sobolev_norm(divergence(st.u), 0.0)}
        res = run_simulation(u0, None, params, cfg, probes=probes)
        assert max(res.probes["div"]) <= 1e-10 * sobolev_norm(u0, 0.0)

    def test_ns_heat_decay(self, grid2d):
        params = ModelParams(Model.NS)
        u0 = helmholtz_project(single_mode(grid2d, (0, 1), component=0, ncomp=2), "P")
        cfg = StepperConfig(dt=1e-2, t_end=1.0)
        res = run_simulation(u0, None, params, cfg, nonlinearity=False)
        ratio = res.final.u.coeffs[np.abs(dealias(u0).coeffs) > 0] / dealias(u0).coeffs[
            np.abs(dealias(u0).coeffs) > 0
        ]
        assert np.allclose(ratio, np.exp(-1.0), atol=1e-8)

    def test_hns_divfree_divergence_stays_zero(self, grid2d, rng):
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-2, alpha=1e-2)
        u0 = dealias(random_band_limited(grid2d, rng, ncomp=2, divergence_free=True))
        cfg = StepperConfig(dt=1e-3, t_end=0.05, snapshot_every=10)
        probes = {"div": lambda st: sobolev_norm(divergence(st.u), 0.0)}
        res = run_simulation(u0, None, params, cfg, probes=probes, nonlinearity=False)
        assert max(res.probes["div"]) <= 1e-10 * sobolev_norm(u0, 0.0)

    def test_pde_residual_second_order(self, grid2d, rng):
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.1, alpha=0.1)
        u0 = dealias(random_band_limited(grid2d, rng, ncomp=2, kmax=5, amplitude=0.5,
                                         divergence_free=True))

        def residual(dt):
            cfg = StepperConfig(dt=dt, t_end=0.1)
            res = run_simulation(u0, None, params, cfg, keep_states=True)
            vals = []
            from hnslab.spectral import laplacian

            for i in range(1, len(res.states) - 1):
                um, uc, up = (res.states[j].u for j in (i - 1, i, i + 1))
                vt = (up - um) * (1.0 / (2 * dt))
                vtt = (up - 2.0 * uc + um) * (1.0 / dt**2)
                resid = (
                    params.epsilon * vtt
                    + vt
                    - laplacian(uc)
                    - nonlinear_term(uc)
                    - (1.0 / params.alpha) * gradient(divergence(uc))
                )
                vals.append(sobolev_norm(resid.remove_mean(), 0.0))
            return max(vals)

        r1, r2 = residual(2e-3), residual(1e-3)
        assert 3.5 <= r1 / r2 <= 4.5

    def test_cross_scheme_second_order_agreement(self, grid2d, rng):
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.1, alpha=0.1)
        u0 = dealias(
            random_band_limited(grid2d, rng, ncomp=2, kmax=5, amplitude=0.5, divergence_free=True)
        )

        def diff(dt):
            a = run_simulation(u0, None, params, StepperConfig(dt=dt, t_end=0.04), nonlinearity=True)
            b = run_simulation(
                u0, None, params, StepperConfig(dt=dt, t_end=0.04, scheme=Scheme.RK4_FULL)
            )
            return sobolev_norm(a.final.u - b.final.u, 0.0)

        d1, d2 = diff(1e-3), diff(5e-4)
        assert 3.5 <= d1 / d2 <= 4.5

    def test_no_branch_mixing(self, grid2d, rng):
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.05, alpha=0.2)
        u0 = dealias(random_band_limited(grid2d, rng, ncomp=2))
        cfg = StepperConfig(dt=2e-3, t_end=0.1)
        full = run_simulation(u0, None, params, cfg, nonlinearity=False)
        p_alone = run_simulation(
            helmholtz_project(u0, "P"), None, params, cfg, nonlinearity=False
        )
        q_alone = run_simulation(
            helmholtz_project(u0, "Q"), None, params, cfg, nonlinearity=False
        )
        scale = sobolev_norm(u0, 0.0)
        assert (
            sobolev_norm(helmholtz_project(full.final.u, "P") - p_alone.final.u, 0.0)
            <= 1e-12 * scale
        )
        assert (
            sobolev_norm(helmholtz_project(full.final.u, "Q") - q_alone.final.u, 0.0)
            <= 1e-12 * scale
        )

    def test_rk4_stability_guard(self, grid2d):
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-4, alpha=1e-4)
        cfg = StepperConfig(dt=1e-2, t_end=0.1, scheme=Scheme.RK4_FULL)
        with pytest.raises(StabilityError):
            cfg.check_stability(params, grid2d)

    def test_blowup_detection(self, grid2d):
        # RK4 far outside its stability region on the full system blows up
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-4, alpha=1e-4)
        u0 = dealias(single_mode(grid2d, (5, 0), component=0, ncomp=2))
        cfg = StepperConfig(dt=1e-2, t_end=5.0, scheme=Scheme.RK4_FULL)
        st = SolverState(u0, SpectralField.zeros(grid2d, 2), 0.0)
        with pytest.raises(BlowUpError) as exc_info:
            for _ in range(500):
                st = step(st, params, cfg)
                _check_blowup(st.u, 1.0, st.time)
        assert exc_info.value.time > 0


ALLOC_PARAMS = [
    ModelParams(Model.NS),
    ModelParams(Model.HNS_EPS, epsilon=0.05),
    ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.05, alpha=0.1),
]
# interpreter objects (states, fields, tuples) of one step, not arrays
PYTHON_OBJECTS = 4096


def traced_peak(fn, *args):
    """(result, peak bytes traced by tracemalloc during fn(*args)); numpy reports its buffers."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("params", ALLOC_PARAMS, ids=["ns", "eps", "eps_alpha"])
@pytest.mark.parametrize("grid", [GridSpec(2, 64), GridSpec(3, 16)], ids=["2d64", "3d16"])
def test_etd2_step_allocates_only_its_state(grid, params):
    # every intermediate lives in the grid's workspace, built by the warm-up
    # step.  In 3D numpy's irfftn holds two complex intermediates the size of
    # its input, which for NS is exactly 2x the returned state.
    rng = np.random.default_rng(30)
    u0, u1 = (dealias(random_band_limited(grid, rng, ncomp=grid.dim)) for _ in range(2))
    if params.model is not Model.HNS_EPS_ALPHA:
        u0, u1 = helmholtz_project(u0, "P"), helmholtz_project(u1, "P")
    cfg = StepperConfig(dt=1e-3, t_end=1.0)
    state = step(SolverState(u0, u1 if params.is_hyperbolic else None, 0.0), params, cfg)
    new, peak = traced_peak(step, state, params, cfg)
    nbytes = sum(F.coeffs.nbytes for F in (new.u, new.u_t) if F is not None)
    assert peak <= 2 * nbytes + PYTHON_OBJECTS, (peak, nbytes)
    _, peak = traced_peak(_check_blowup, new.u, 1.0, new.time)
    assert peak <= PYTHON_OBJECTS


class TestRunSimulation:
    def test_t_end_zero_initial_probe_only(self, grid2d, rng):
        params = ModelParams(Model.HNS_EPS, epsilon=0.1)
        u0 = random_band_limited(grid2d, rng, ncomp=2, divergence_free=True)
        cfg = StepperConfig(dt=1e-2, t_end=0.0)
        res = run_simulation(u0, None, params, cfg, probes={"l2": lambda st: sobolev_norm(st.u, 0)})
        assert res.times == [0.0]
        assert len(res.probes["l2"]) == 1

    def test_etd2_blowup_partial_series_and_full_final(self, monkeypatch):
        import hnslab.spectral as spectral

        grid = GridSpec(2, 16)
        u0 = random_band_limited(grid, np.random.default_rng(1), ncomp=2, amplitude=50.0,
                                 divergence_free=True)
        cfg = StepperConfig(dt=0.2, t_end=5.0)
        calls = []
        full = spectral._full

        def counting(half):
            calls.append(half.shape)
            return full(half)

        monkeypatch.setattr(spectral, "_full", counting)
        probes = {"l2": lambda st: sobolev_norm(st.u, 0.0)}
        with pytest.raises(BlowUpError) as exc_info:
            run_simulation(u0, None, ModelParams(Model.NS), cfg, probes=probes)
        exc = exc_info.value
        assert exc.time == pytest.approx(0.6)
        partial = exc.partial
        assert partial.times == pytest.approx([0.0, 0.2, 0.4])
        assert len(partial.probes["l2"]) == 3
        # neither the loop nor the probes complete a half spectrum
        assert calls == []
        final = partial.final
        assert final.time == exc.time
        assert final.u.coeffs.shape == (2, *grid.spectral_shape)
        # the state that blew up still stands for a real field
        c = final.u.coeffs
        back = to_spectral(to_physical(final.u)).coeffs
        assert np.max(np.abs(back - c)) <= 1e-12 * np.max(np.abs(c))
        assert np.max(np.abs(final.u.coeffs)) > 1e12 * np.max(np.abs(dealias(u0).coeffs))

    def test_blowup_carries_partial_series(self, grid2d):
        # large data and a coarse dt make the penalized model blow up under ETD2;
        # the error carries the snapshots recorded before the step that blew up
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.05, alpha=0.1)
        u0 = random_band_limited(grid2d, np.random.default_rng(2), ncomp=2, amplitude=50.0)
        cfg = StepperConfig(dt=0.1, t_end=5.0)
        probes = {
            "l2": lambda st: sobolev_norm(st.u, 0.0),
            "div": lambda st: sobolev_norm(divergence(st.u), 0.0),
            "ut": lambda st: sobolev_norm(st.u_t, 0.0),
        }
        with pytest.raises(BlowUpError) as exc_info:
            run_simulation(u0, None, params, cfg, probes=probes)
        exc = exc_info.value
        partial = exc.partial
        n = len(partial.times)
        assert n >= 3
        assert exc.time == pytest.approx(n * cfg.dt)
        assert partial.final.time == exc.time
        assert partial.final.u_t is not None
        assert np.max(np.abs(partial.final.u.coeffs)) > 1e12 * np.max(np.abs(dealias(u0).coeffs))
        # the partial series is the series of the run stopped before the blow-up
        before = StepperConfig(dt=cfg.dt, t_end=(n - 1) * cfg.dt)
        clean = run_simulation(u0, None, params, before, probes=probes)
        assert partial.times == clean.times
        assert partial.probes == clean.probes
        assert all(np.all(np.isfinite(series)) for series in partial.probes.values())


class TestPressure:
    def test_zero(self, grid2d):
        p = recover_pressure(SpectralField.zeros(grid2d, 2))
        assert sobolev_norm(p, 0.0) == 0.0

    def test_taylor_green_closed_form(self, grid2d):
        # classical phases: u = (cos x sin y, -sin x cos y) gives
        # p = -(cos 2x + cos 2y)/4 under p = -Lap^{-1} div (u.grad)u
        x, y = grid2d.meshgrid()
        vals = np.stack([np.cos(x) * np.sin(y), -np.sin(x) * np.cos(y)])
        u = to_spectral(PhysicalField(grid2d, vals))
        p = to_physical(recover_pressure(u)).values[0]
        expect = -(np.cos(2 * x) + np.cos(2 * y)) / 4.0
        assert np.max(np.abs(p - expect)) < 1e-12

    def test_gradient_identity_random(self, grid2d, rng):
        u = dealias(random_band_limited(grid2d, rng, ncomp=2, divergence_free=True))
        p = recover_pressure(u)
        lhs = gradient(p)
        rhs = helmholtz_project(nonlinear_term(u), "Q")
        assert sobolev_norm(lhs - rhs, 0.0) <= 1e-10 * max(sobolev_norm(rhs, 0.0), 1e-300)


class TestPicard:
    def _params(self):
        return ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.5, alpha=0.5)

    def test_zero_data_one_iteration(self, grid2d):
        params = self._params()
        z = SpectralField.zeros(grid2d, 2)
        res = picard_local_solve(z, z, params, T=0.05, tol=1e-14)
        assert res.iterations == 1
        assert sobolev_norm(res.state.u, 0.0) == 0.0

    def test_linear_matches_characteristic_root_oracle(self, grid2d):
        params = self._params()
        u0 = dealias(single_mode(grid2d, (0, 1), component=0, ncomp=2, amplitude=0.02))
        u0 = helmholtz_project(u0, "P")
        z = SpectralField.zeros(grid2d, 2)
        T = 0.1
        res = picard_local_solve(u0, z, params, T=T, tol=1e-12, n_mesh=96, nonlinearity=False)
        a, b = damped_mode_oracle(T, params.epsilon, 1.0 / params.epsilon, 1.0, 0.0)
        nz = np.abs(u0.coeffs) > 1e-14
        assert np.allclose(res.state.u.coeffs[nz] / u0.coeffs[nz], a, atol=1e-6)
        assert np.allclose(res.state.u_t.coeffs[nz] / u0.coeffs[nz], b, atol=1e-6)

    def test_geometric_contraction_small_data(self, grid2d, rng):
        params = self._params()
        u0 = dealias(
            random_band_limited(grid2d, rng, ncomp=2, kmax=4, amplitude=0.02)
        )
        z = SpectralField.zeros(grid2d, 2)
        res = picard_local_solve(u0, z, params, T=0.1, tol=1e-11, n_mesh=32)
        ratios = [
            res.distances[i + 1] / res.distances[i]
            for i in range(1, len(res.distances) - 1)
            if res.distances[i] > 0
        ]
        assert ratios and all(r < 1.0 for r in ratios)

    def test_each_source_split_once(self, grid2d, rng, monkeypatch):
        import hnslab.solvers as solvers

        calls = []

        def counting(F, which):
            calls.append(which)
            return helmholtz_project(F, which)

        monkeypatch.setattr(solvers, "helmholtz_project", counting)
        u0 = dealias(random_band_limited(grid2d, rng, ncomp=2, kmax=4, amplitude=0.02))
        z = SpectralField.zeros(grid2d, 2)
        n_mesh = 8
        res = picard_local_solve(u0, z, self._params(), T=0.1, tol=1e-11, n_mesh=n_mesh)
        assert len(calls) <= (res.iterations + 1) * (n_mesh + 1) + 2

    def test_time_bound_enforced(self, grid2d, rng):
        params = self._params()
        u0 = dealias(random_band_limited(grid2d, rng, ncomp=2, amplitude=0.5))
        z = SpectralField.zeros(grid2d, 2)
        bound = picard_time_bound(u0, z, params)
        with pytest.raises(ValueError):
            picard_local_solve(u0, z, params, T=2.0 * bound)

    def test_contraction_failure_detected(self, grid2d, rng):
        # far outside the contraction window the distances grow
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.01, alpha=0.5)
        u0 = dealias(random_band_limited(grid2d, rng, ncomp=2, kmax=3, amplitude=0.5))
        z = SpectralField.zeros(grid2d, 2)
        with pytest.raises((ContractionFailureError, Exception)):
            picard_local_solve(
                u0, z, params, T=1.0, n_mesh=16, enforce_time_bound=False, max_iter=30
            )
