"""Solver contracts: propagators, steppers, pressure, Picard iteration."""

import tracemalloc

import numpy as np
import pytest

from hnslab.experiments import InitialDataSpec, build_initial_data
from hnslab.solvers import (
    BlowUpError,
    ContractionFailureError,
    Model,
    ModelParams,
    SolverState,
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
    _full,
    _half,
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
from test_equivalence import assert_close, full, lift, step_oracle
from test_spectral import PARITY_GRIDS, PARITY_IDS


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
    conv = -1.0 * nonlinear_term(u)  # (u.grad)u, on the dealias box
    k2 = k_squared(u.grid, conv.cut)
    inv = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)
    return SpectralField(u.grid, divergence(conv).coeffs * inv)


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

    def test_speeds(self):
        p = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-2, alpha=1e-2)
        assert np.isclose(p.c1, np.sqrt(1.01 / 1e-4))
        assert np.isclose(p.c2, 10.0)
        assert p.c1 > p.c2


class TestStepperConfig:
    @pytest.mark.parametrize(
        "dt, t_end",
        [(0.0, 1.0), (-1.0, 1.0), (np.nan, 1.0), (np.inf, 1.0), (0.1, -1.0), (0.1, np.nan), (0.1, np.inf)],
    )
    def test_rejects_nonpositive_or_nan(self, dt, t_end):
        with pytest.raises(ValueError):
            StepperConfig(dt=dt, t_end=t_end)


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
        # ETD2 against the full-spectrum RK4 of the test oracles
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.1, alpha=0.1)
        u0 = dealias(
            random_band_limited(grid2d, rng, ncomp=2, kmax=5, amplitude=0.5, divergence_free=True)
        )

        def diff(dt):
            a = run_simulation(u0, None, params, StepperConfig(dt=dt, t_end=0.04), nonlinearity=True)
            u, v = full(u0), np.zeros((2, *grid2d.shape), dtype=np.complex128)
            for _ in range(round(0.04 / dt)):
                u, v = step_oracle(u, v, params, dt, grid2d, scheme="rk4")
            return sobolev_norm(a.final.u - SpectralField(grid2d, _half(u)), 0.0)

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

    def test_blowup_detection(self):
        # NS from huge data with a coarse dt blows up under ETD2
        grid = GridSpec(2, 16)
        u0 = random_band_limited(grid, np.random.default_rng(1), ncomp=2, amplitude=1000.0,
                                 divergence_free=True)
        u0 = dealias(u0)
        cfg = StepperConfig(dt=0.05, t_end=5.0)
        initial_max = float(np.max(np.abs(u0.coeffs)))
        st = SolverState(u0, None, 0.0)
        for _ in range(100):
            st = step(st, ModelParams(Model.NS), cfg)
            if _check_blowup(st.u.coeffs, initial_max):
                break
        else:
            pytest.fail("no blow-up detected in 100 steps")
        assert st.time > 0
        assert not _check_blowup(u0.coeffs, initial_max)


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
    # every intermediate, the box transforms' passes included, lives in the
    # grid's box workspace, built by the warm-up step
    rng = np.random.default_rng(30)
    u0, u1 = (dealias(random_band_limited(grid, rng, ncomp=grid.dim)) for _ in range(2))
    if params.model is not Model.HNS_EPS_ALPHA:
        u0, u1 = helmholtz_project(u0, "P"), helmholtz_project(u1, "P")
    cfg = StepperConfig(dt=1e-3, t_end=1.0)
    state = step(SolverState(u0, u1 if params.is_hyperbolic else None, 0.0), params, cfg)
    with np.errstate():
        # numpy's own iteration buffers of a broadcast ufunc, freed by the
        # call, are kept small, as in the run test below
        np.setbufsize(64)
        new, peak = traced_peak(step, state, params, cfg)
    nbytes = sum(F.coeffs.nbytes for F in (new.u, new.u_t) if F is not None)
    assert peak <= nbytes + PYTHON_OBJECTS, (peak, nbytes)
    box = new.u.coeffs
    assert box.shape == (grid.dim, *grid.box_shape)
    _, peak = traced_peak(_check_blowup, box, 1.0, np.empty(box.shape))
    assert peak <= PYTHON_OBJECTS


@pytest.mark.parametrize("params", ALLOC_PARAMS, ids=["ns", "eps", "eps_alpha"])
@pytest.mark.parametrize("grid", [GridSpec(2, 64), GridSpec(3, 16)], ids=["2d64", "3d16"])
def test_run_allocates_nothing_between_snapshots(grid, params, monkeypatch):
    # the loop steps its dealias-box state in place and builds fields only at
    # snapshots: the peak traced from one snapshot's fields to the next's
    # stays below 4 KB.  keep_states keeps every recorded state alive, so no
    # free of an earlier one can hide an allocation.
    import hnslab.solvers as solvers

    rng = np.random.default_rng(31)
    u0, u1 = (random_band_limited(grid, rng, ncomp=grid.dim) for _ in range(2))
    cfg = StepperConfig(dt=1e-3, t_end=9e-3, snapshot_every=3)
    peaks, base = [], [0]
    fields = solvers._box_state

    def measured(*args):
        peaks.append(tracemalloc.get_traced_memory()[1] - base[0])
        out = fields(*args)
        tracemalloc.reset_peak()
        base[0] = tracemalloc.get_traced_memory()[0]
        return out

    monkeypatch.setattr(solvers, "_box_state", measured)
    run_simulation(u0, u1, params, cfg)  # builds the workspace and the tables
    del peaks[:]
    with np.errstate():
        # a numpy ufunc with a broadcast operand copies its operands into
        # iteration buffers of np.getbufsize() elements (8192, 128 KB of
        # complex) when the whole array fits; they are numpy's own and freed
        # by the call, so they are kept small here
        np.setbufsize(64)
        tracemalloc.start()
        try:
            run_simulation(u0, u1, params, cfg, keep_states=True)
        finally:
            tracemalloc.stop()
    # the first peak also covers the run's set-up: its data dealiased and projected
    assert len(peaks) == 3
    assert all(peak < PYTHON_OBJECTS for peak in peaks[1:]), peaks


# Python calls into src/hnslab per step of a 2D 64^2 run: the loop's core,
# both forcings with their transforms and Helmholtz splits, the blow-up check
HNSLAB_CALLS_PER_STEP = {"ns": 20, "eps": 24, "eps_alpha": 36}


@pytest.mark.parametrize("params, name", zip(ALLOC_PARAMS, HNSLAB_CALLS_PER_STEP))
def test_hnslab_calls_per_step(params, name):
    # counted by cProfile in hnslab's own frames only, so numpy's Python
    # wrappers, which vary between numpy versions, do not enter the count;
    # the difference of a 20- and a 10-step run leaves the per-run calls out
    import cProfile
    import os
    import pstats

    import hnslab

    package = os.path.dirname(hnslab.__file__)
    grid = GridSpec(2, 64)
    rng = np.random.default_rng(32)
    u0, u1 = (random_band_limited(grid, rng, ncomp=2) for _ in range(2))

    def hnslab_calls(steps):
        cfg = StepperConfig(dt=1e-3, t_end=steps * 1e-3, snapshot_every=steps)
        profile = cProfile.Profile()
        profile.runcall(run_simulation, u0, u1, params, cfg)
        stats = pstats.Stats(profile).stats
        return sum(calls for (path, _, _), (_, calls, *_) in stats.items() if path.startswith(package))

    hnslab_calls(1)  # builds the workspace and the tables
    assert hnslab_calls(20) - hnslab_calls(10) == 10 * HNSLAB_CALLS_PER_STEP[name]


class TestRunSimulation:
    def test_t_end_zero_initial_probe_only(self, grid2d, rng):
        params = ModelParams(Model.HNS_EPS, epsilon=0.1)
        u0 = random_band_limited(grid2d, rng, ncomp=2, divergence_free=True)
        cfg = StepperConfig(dt=1e-2, t_end=0.0)
        res = run_simulation(u0, None, params, cfg, probes={"l2": lambda st: sobolev_norm(st.u, 0)})
        assert res.times == [0.0]
        assert len(res.probes["l2"]) == 1
        assert res.steps == 0

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
        assert partial.steps == 3  # the step that blew up counts
        assert len(partial.probes["l2"]) == 3
        # neither the loop nor the probes complete a half spectrum
        assert calls == []
        final = partial.final
        assert final.time == exc.time
        assert final.u.coeffs.shape == (2, *grid.box_shape)
        # the state that blew up still stands for a real field
        c = final.u.coeffs
        back = to_spectral(to_physical(final.u)).coeffs
        assert np.max(np.abs(back - lift(final.u))) <= 1e-12 * np.max(np.abs(c))
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
        assert partial.steps == n
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
        c0 = lift(u0)  # compared on the half spectrum
        nz = np.abs(c0) > 1e-14
        assert np.allclose(lift(res.state.u)[nz] / c0[nz], a, atol=1e-6)
        assert np.allclose(lift(res.state.u_t)[nz] / c0[nz], b, atol=1e-6)

    @pytest.mark.parametrize("grid", PARITY_GRIDS, ids=PARITY_IDS)
    def test_initial_data_iterates_on_the_dealias_box(self, grid):
        # build_initial_data's u1 is the empty box, so the iterates live on the
        # dealias box; they are the iterates of the half-spectrum run
        params = self._params()
        spec = InitialDataSpec(kind="random", seed=5, kmax=4, amplitude=0.02)
        u0, u1 = build_initial_data(spec, grid, params)
        T = 0.5 * picard_time_bound(u0, u1, params)
        res = picard_local_solve(u0, u1, params, T=T, tol=1e-11, n_mesh=4)
        assert res.state.u.cut == res.state.u_t.cut == grid.dealias_cut
        half = SpectralField(grid, lift(u1))
        ref = picard_local_solve(u0, half, params, T=T, tol=1e-11, n_mesh=4)
        assert ref.state.u.cut == grid.n_per_axis // 2 and res.iterations == ref.iterations
        assert_close(lift(res.state.u), ref.state.u.coeffs)
        assert_close(lift(res.state.u_t), ref.state.u_t.coeffs)
        assert np.allclose(res.distances, ref.distances, rtol=1e-10, atol=0.0)

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
        helmholtz_parts = solvers._helmholtz_parts

        def counting(x, grid, out=None):
            calls.append(x.shape)
            return helmholtz_parts(x, grid, out=out)

        monkeypatch.setattr(solvers, "_helmholtz_parts", counting)
        u0 = dealias(random_band_limited(grid2d, rng, ncomp=2, kmax=4, amplitude=0.02))
        z = SpectralField.zeros(grid2d, 2)
        n_mesh = 8
        res = picard_local_solve(u0, z, self._params(), T=0.1, tol=1e-11, n_mesh=n_mesh)
        assert len(calls) == res.iterations * (n_mesh + 1) + 2  # every source, then the two data

    def assert_hns_eps_agrees_with_stepper(self, grid2d, divergence_free):
        params = ModelParams(Model.HNS_EPS, epsilon=0.5)
        rng = np.random.default_rng(3)
        u0 = random_band_limited(grid2d, rng, ncomp=2, kmax=4, amplitude=0.02, divergence_free=divergence_free)
        u0 = dealias(u0)
        z = SpectralField.zeros(grid2d, 2)
        res = picard_local_solve(u0, z, params, T=0.08, tol=1e-11, n_mesh=64)
        sim = run_simulation(u0, z, params, StepperConfig(dt=5e-4, t_end=0.08))
        size = sobolev_norm(res.state.u, 0.0)
        assert sobolev_norm(divergence(res.state.u), 0.0) <= 1e-12 * size
        assert sobolev_norm(res.state.u - sim.final.u, 0.0) <= 1e-6 * size

    def test_hns_eps_solves_the_steppers_equation(self, grid2d):
        # Picard's forcing is the stepper's: Leray-projected for hns_eps, so the
        # state stays divergence-free and agrees with run_simulation
        self.assert_hns_eps_agrees_with_stepper(grid2d, divergence_free=True)

    def test_hns_eps_projects_data_that_is_not_divergence_free(self, grid2d):
        # the constrained model lives on divergence-free fields: Picard drops the
        # data's gradient part, as run_simulation's Leray projection does
        self.assert_hns_eps_agrees_with_stepper(grid2d, divergence_free=False)

    def test_state_mean_free_and_fields_bounded(self, grid2d, monkeypatch):
        # the sources drop their mean, as the stepper's do, and the iterates are
        # arrays: a solve builds the same few fields at any mesh and iteration count
        params = self._params()
        u0 = dealias(random_band_limited(grid2d, np.random.default_rng(15), ncomp=2, kmax=4, amplitude=0.02))
        z = SpectralField.zeros(grid2d, 2)
        built = []
        init = SpectralField.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SpectralField, "__init__", counting)
        counts, iterations = set(), set()
        for n_mesh, tol in ((4, 1e-11), (16, 1e-11), (4, 1e-6)):
            built.clear()
            res = picard_local_solve(u0, z, params, T=0.1, tol=tol, n_mesh=n_mesh)
            counts.add(len(built))
            iterations.add(res.iterations)
            for F in (res.state.u, res.state.u_t):
                assert not F.coeffs[(slice(None), 0, 0)].any()
        assert len(iterations) == 2 and len(counts) == 1

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
        with pytest.raises(ContractionFailureError):
            picard_local_solve(
                u0, z, params, T=1.0, n_mesh=16, enforce_time_bound=False, max_iter=30
            )
