"""Real-to-complex transforms, the half-spectrum linear flow and the half-spectrum stepper
against the forms they replaced.

Each oracle is the earlier implementation: complex fftn/ifftn, a Hermitian
projection after every forward transform, the nonlinear term as one
collocation product per component plus one for (div u) u, the exact
linear flow as both Helmholtz projections of each datum per branch on the
full spectrum, and the ETD2 and RK4 steps on full-spectrum fields with
full-grid tables.  The general form of the nonlinear term is the oracle of
the divergence form the constrained models' forcing takes.  Full-band fields
(kmax = n) carry Nyquist content, where a derivative along any axis but the
last is not Hermitian, and neither is a Helmholtz projection.
"""

import numpy as np
import pytest

import hnslab.experiments as experiments
import hnslab.solvers as solvers
import hnslab.spectral as spectral
from hnslab.experiments import BumpSpec, FrontReport, finite_speed_experiment, support_radius
from hnslab.solvers import (
    Model,
    ModelParams,
    Scheme,
    SolverState,
    StepperConfig,
    _propagator,
    evolve_linear,
    nonlinear_term,
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
    laplacian,
    padded_product,
    partial_derivative,
    random_band_limited,
    sobolev_norm,
    to_physical,
    to_spectral,
)

RTOL = 1e-12
GRIDS = [GridSpec(2, 16), GridSpec(3, 8)]
GRID_IDS = ["2d16", "3d8"]
TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)  # fmt: skip


def assert_close(got, expect):
    assert np.max(np.abs(got - expect)) <= RTOL * np.max(np.abs(expect))


def axes(grid):
    return tuple(range(1, grid.dim + 1))


def hermitianize_oracle(coeffs, dim):
    rev = coeffs
    for ax in range(1, dim + 1):
        rev = np.roll(np.flip(rev, axis=ax), 1, axis=ax)
    return 0.5 * (coeffs + np.conj(rev))


def to_physical_oracle(F):
    return np.fft.ifftn(F.coeffs, axes=axes(F.grid), norm="forward").real


def to_spectral_oracle(grid, values):
    coeffs = np.fft.fftn(values, axes=axes(grid), norm="forward")
    return hermitianize_oracle(coeffs, grid.dim)


def spectral_product_oracle(F, G):
    vals = to_physical_oracle(F) * to_physical_oracle(G)
    return dealias(SpectralField(F.grid, to_spectral_oracle(F.grid, vals)))


def padded_product_oracle(F, G):
    grid = F.grid
    n = grid.n_per_axis
    m = 2 * n
    half = n // 2
    idx = np.r_[0:half, m - half : m]
    src = np.r_[0:half, n - half : n]

    def pad(coeffs):
        big = np.zeros((coeffs.shape[0],) + (m,) * grid.dim, dtype=np.complex128)
        big[np.ix_(range(coeffs.shape[0]), *[idx] * grid.dim)] = coeffs[
            np.ix_(range(coeffs.shape[0]), *[src] * grid.dim)
        ]
        return big

    big_axes = tuple(range(1, grid.dim + 1))
    fa = np.fft.ifftn(pad(F.coeffs), axes=big_axes, norm="forward").real
    fb = np.fft.ifftn(pad(G.coeffs), axes=big_axes, norm="forward").real
    big = np.fft.fftn(fa * fb, axes=big_axes, norm="forward")
    ncomp = big.shape[0]
    out = np.zeros((ncomp,) + grid.shape, dtype=np.complex128)
    out[np.ix_(range(ncomp), *[src] * grid.dim)] = big[np.ix_(range(ncomp), *[idx] * grid.dim)]
    return hermitianize_oracle(out, grid.dim)


def nonlinear_oracle(u):
    """sum_i d_i(u_i u) - (div u) u, negated: 3(d+1) complex transforms."""
    out = SpectralField.zeros(u.grid, u.grid.dim)
    for i in range(u.grid.dim):
        out = out + partial_derivative(spectral_product_oracle(u.component(i), u), i)
    out = out - spectral_product_oracle(divergence(u), u)
    return -1.0 * out


def evolve_linear_oracle(u0, u1, params, t, damping=True):
    """(u, u_t) at t from full-spectrum tables and two projections of each datum."""
    grid = u0.grid
    out_u = np.zeros_like(u0.coeffs)
    out_v = np.zeros_like(u0.coeffs)
    for which in "PQ":
        pu = helmholtz_project(u0, which)
        pv = helmholtz_project(u1, which)
        A, B, Ap, Bp = _propagator(params, grid, t, damping, which)
        out_u += A * pu.coeffs + B * pv.coeffs
        out_v += Ap * pu.coeffs + Bp * pv.coeffs
    return tuple(SpectralField(grid, out, is_mean_zero=True) for out in (out_u, out_v))


def front_oracle(params, grid, spec, damping, n_samples):
    """The earlier front sampling loop: evolve_linear_oracle and to_physical per sample."""
    center = spec.center or (grid.domain_length / 2.0,) * grid.dim
    u0 = experiments._bump_data(spec, grid)
    z = SpectralField.zeros(grid, grid.dim)
    phys0 = to_physical(u0)
    theta = 1e-8 * float(np.max(np.sqrt(np.sum(phys0.values**2, axis=0))))
    R0 = support_radius(phys0, center, theta)
    h = grid.spacing
    speed = params.c2 if spec.kind == "solenoidal" else params.c1
    times = np.linspace(0.0, 0.8 * (grid.domain_length / 2.0 - R0 - 4.0 * h) / speed, n_samples + 1)
    radii = []
    for t in times:
        u, _ = evolve_linear_oracle(u0, z, params, float(t), damping)
        radii.append(support_radius(to_physical(u), center, theta))
    bounds = [R0 + params.c1 * float(t) + 2.0 * h for t in times]
    late = len(times) // 2
    return FrontReport(
        times=[float(t) for t in times],
        support_radius=radii,
        c1=params.c1,
        slope_bound_satisfied=all(r <= b for r, b in zip(radii, bounds)),
        bound_radius=bounds,
        initial_radius=R0,
        measured_speed=float(np.polyfit(times[late:], radii[late:], 1)[0]),
        threshold=theta,
    )


def full_band(grid, seed, ncomp=1):
    return random_band_limited(grid, np.random.default_rng(seed), ncomp=ncomp, kmax=grid.n_per_axis)


def count_transforms(monkeypatch):
    """Names of the numpy.fft calls made from now on; a transform built from another counts once."""
    calls = []
    depth = [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            if depth[0] == 0:
                calls.append(fn.__name__)
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    for name in TRANSFORMS:
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    return calls


def count_projections(monkeypatch):
    """The which-arguments of helmholtz_project calls from solvers and experiments from now on."""
    calls = []

    def counting(F, which):
        calls.append(which)
        return helmholtz_project(F, which)

    for module in (solvers, experiments):
        monkeypatch.setattr(module, "helmholtz_project", counting)
    return calls


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestTransforms:
    def test_to_physical_arbitrary_complex(self, grid):
        rng = np.random.default_rng(1)
        shape = (grid.dim, *grid.shape)
        F = SpectralField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        assert_close(to_physical(F).values, to_physical_oracle(F))

    def test_to_physical_full_band_derivatives(self, grid):
        F = full_band(grid, 2)
        for ax in range(grid.dim):
            D = partial_derivative(F, ax)
            assert_close(to_physical(D).values, to_physical_oracle(D))
        G = gradient(F)
        assert_close(to_physical(G).values, to_physical_oracle(G))

    def test_to_spectral(self, grid):
        values = np.random.default_rng(3).normal(size=(grid.dim, *grid.shape))
        got = to_spectral(PhysicalField(grid, values)).coeffs
        expect = to_spectral_oracle(grid, values)
        assert_close(got, expect)
        assert np.array_equal(got, hermitianize_oracle(got, grid.dim))  # exactly Hermitian

    def test_padded_product_full_band(self, grid):
        f = full_band(grid, 4)
        v = full_band(grid, 5, ncomp=grid.dim)
        for F, G in [(f, v), (v, v), (partial_derivative(v, 0), v)]:
            assert_close(padded_product(F, G).coeffs, padded_product_oracle(F, G))


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestNonlinearTerm:
    def test_dealiased(self, grid):
        u = dealias(random_band_limited(grid, np.random.default_rng(6), ncomp=grid.dim))
        assert_close(nonlinear_term(u).coeffs, nonlinear_oracle(u).coeffs)

    def test_full_band_hermitian(self, grid):
        u = full_band(grid, 7, ncomp=grid.dim)
        assert_close(nonlinear_term(u).coeffs, nonlinear_oracle(u).coeffs)

    def test_projected_full_band_no_dealiasing(self, grid):
        # with dealias_fraction = 1 a Helmholtz-projected full-band field keeps
        # Nyquist content that is not Hermitian; the term is that of its real field
        g = GridSpec(grid.dim, grid.n_per_axis, dealias_fraction=1.0)
        u = helmholtz_project(full_band(g, 9, ncomp=g.dim), "P")
        real = SpectralField(g, hermitianize_oracle(u.coeffs, g.dim))
        assert not np.allclose(u.coeffs, real.coeffs)
        got = nonlinear_term(u)
        assert_close(got.coeffs, nonlinear_term(real).coeffs)
        # the oracle's Nyquist derivatives leave a non-Hermitian part that no
        # real field has, so compare the real fields
        assert_close(to_physical(got).values, to_physical_oracle(nonlinear_oracle(real)))

    def test_two_transforms_per_evaluation(self, grid, monkeypatch):
        u = dealias(random_band_limited(grid, np.random.default_rng(8), ncomp=grid.dim))
        calls = count_transforms(monkeypatch)
        nonlinear_term(u)
        assert len(calls) == 2, calls


LINEAR_PARAMS = [
    ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.05, alpha=0.1),
    ModelParams(Model.HNS_EPS, epsilon=0.05),
]


@pytest.mark.parametrize("damping", [True, False], ids=["damped", "undamped"])
@pytest.mark.parametrize("params", LINEAR_PARAMS, ids=["eps_alpha", "eps"])
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestEvolveLinear:
    def test_full_band_is_hermitian_part_of_oracle(self, grid, params, damping):
        u0 = full_band(grid, 10, ncomp=grid.dim)
        u1 = full_band(grid, 11, ncomp=grid.dim)
        got = evolve_linear(u0, u1, params, 0.3, damping=damping)
        oracle = evolve_linear_oracle(u0, u1, params, 0.3, damping)
        for field, expect in zip((got.u, got.u_t), oracle):
            real = hermitianize_oracle(expect.coeffs, grid.dim)
            if params.model is Model.HNS_EPS_ALPHA:
                # the branches' projections leave a Nyquist part that is not
                # Hermitian; with equal branch tables it cancels
                assert not np.allclose(expect.coeffs, real)
            assert_close(field.coeffs, real)
            assert_close(to_physical(field).values, to_physical_oracle(expect))

    def test_dealiased_matches_oracle(self, grid, params, damping):
        rng = np.random.default_rng(12)
        u0, u1 = (dealias(random_band_limited(grid, rng, ncomp=grid.dim)) for _ in range(2))
        got = evolve_linear(u0, u1, params, 0.3, damping=damping)
        oracle = evolve_linear_oracle(u0, u1, params, 0.3, damping)
        for field, expect in zip((got.u, got.u_t), oracle):
            assert_close(field.coeffs, expect.coeffs)


@pytest.mark.parametrize("kind, damping", [("gradient", False), ("mixed", True)])
def test_front_report_matches_oracle(kind, damping):
    grid = GridSpec(2, 128)
    params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-1, alpha=1e-1)
    spec = BumpSpec(kind, center=(2.0, 3.5))
    got = finite_speed_experiment(params, grid, spec, damping=damping, n_samples=4)
    assert got == front_oracle(params, grid, spec, damping, n_samples=4)


class TestLinearFlowCounts:
    def test_one_projection_per_nonzero_datum(self, monkeypatch):
        grid = GridSpec(2, 16)
        params = LINEAR_PARAMS[0]
        u = dealias(random_band_limited(grid, np.random.default_rng(13), ncomp=2))
        z = SpectralField.zeros(grid, 2)
        calls = count_projections(monkeypatch)
        for u0, u1, expect in [(u, u, 2), (u, z, 1), (z, u, 1), (z, z, 0)]:
            del calls[:]
            evolve_linear(u0, u1, params, 0.2)
            assert len(calls) == expect, (calls, expect)

    @pytest.mark.parametrize("n_samples", [2, 6])
    def test_front_experiment_splits_once(self, monkeypatch, n_samples):
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-1, alpha=1e-1)
        calls = count_projections(monkeypatch)
        finite_speed_experiment(params, GridSpec(2, 128), BumpSpec("mixed"), n_samples=n_samples)
        assert len(calls) <= 2, calls

    def test_front_experiment_one_inverse_on_half_tables_per_sample(self, monkeypatch):
        grid = GridSpec(2, 128)
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-1, alpha=1e-1)
        shapes = []
        mode_functions = solvers._mode_functions

        def recording(t, eps, gamma, c2k2, *args):
            shapes.append(c2k2.shape)
            return mode_functions(t, eps, gamma, c2k2, *args)

        monkeypatch.setattr(solvers, "_mode_functions", recording)
        calls = count_transforms(monkeypatch)
        counts = []
        for n_samples in (2, 6):
            del calls[:]
            finite_speed_experiment(params, grid, BumpSpec("mixed"), n_samples=n_samples)
            counts.append(calls.count("irfftn"))
        assert counts[1] - counts[0] == 4, counts
        half = (grid.n_per_axis, grid.n_per_axis // 2 + 1)
        assert shapes and all(shape == half for shape in shapes), shapes


def forcing_oracle(u, params, nonlinearity):
    """Full-spectrum forcing: f(u), Leray-projected for the constrained models, mean removed."""
    if not nonlinearity:
        return SpectralField.zeros(u.grid, u.grid.dim)
    f = nonlinear_term(u)
    if params.model in (Model.NS, Model.HNS_EPS):
        f = helmholtz_project(f, "P")
    return f.remove_mean()


def etd2_tables_oracle(params, grid, dt):
    """The ETD2 tables on the full grid: (E, J0, K) for NS, else one 8-tuple per branch."""
    if params.model is Model.NS:
        k2 = k_squared(grid)
        z = -k2 * dt
        return np.exp(z), -np.expm1(z) / np.where(k2 > 0, k2, 1.0), dt * solvers._phi2(z)
    tabs = []
    for branch in "PQ":
        A, B, Ap, Bp = _propagator(params, grid, dt, True, branch)
        c2k2 = solvers._branch_c2k2(params, grid, branch)
        ge = 1.0 / params.epsilon
        safe = np.where(c2k2 > 0, c2k2, 1.0)
        j0u = (1.0 - Bp - ge * B) / safe
        j1u = dt * (-ge * B - Bp) / safe - (-ge * j0u - B) / safe
        j1v = dt * B - j0u
        tabs.append((A, B, Ap, Bp, j0u, B, j0u - j1u / dt, B - j1v / dt))
    return tabs


def step_oracle(state, params, cfg, nonlinearity=True):
    """One step on full-spectrum SpectralFields, splitting both Helmholtz branches each stage."""
    grid, dt = state.u.grid, cfg.dt
    if cfg.scheme is Scheme.RK4_FULL:

        def rhs(u, v):
            f = forcing_oracle(u, params, nonlinearity)
            if params.model is Model.NS:
                return laplacian(u) + f, None
            acc = laplacian(u) - v + f
            if params.model is Model.HNS_EPS_ALPHA:
                acc = acc + (1.0 / params.alpha) * gradient(divergence(u))
            return v, (1.0 / params.epsilon) * acc

        def advance(k, factor):
            return (
                state.u + factor * k[0],
                None if k[1] is None else state.u_t + factor * k[1],
            )

        k1 = rhs(state.u, state.u_t)
        k2 = rhs(*advance(k1, dt / 2))
        k3 = rhs(*advance(k2, dt / 2))
        k4 = rhs(*advance(k3, dt))
        u = state.u + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        v = None
        if k1[1] is not None:
            v = state.u_t + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        return SolverState(u, v, state.time + dt)
    tables = etd2_tables_oracle(params, grid, dt)
    if params.model is Model.NS:
        E, J0, K = tables
        g0 = forcing_oracle(state.u, params, nonlinearity)
        a = SpectralField(grid, E * state.u.coeffs + J0 * g0.coeffs, is_mean_zero=True)
        g1 = forcing_oracle(a, params, nonlinearity)
        return SolverState(
            SpectralField(grid, a.coeffs + K * (g1.coeffs - g0.coeffs), is_mean_zero=True),
            None,
            state.time + dt,
        )

    def by_branch(kernel, *fields):
        out = None
        for tab, which in zip(tables, "PQ"):
            part = kernel(tab, *(helmholtz_project(F, which).coeffs for F in fields))
            out = part if out is None else tuple(a + b for a, b in zip(out, part))
        return out

    def predict(tab, u, v, g):
        A, B, Ap, Bp, j0u, j0v, _, _ = tab
        return A * u + B * v + j0u * g, Ap * u + Bp * v + j0v * g

    def correct(tab, dg):
        return tab[6] * dg, tab[7] * dg

    scale = 1.0 / params.epsilon
    g0 = scale * forcing_oracle(state.u, params, nonlinearity)
    au, av = by_branch(predict, state.u, state.u_t, g0)
    au = SpectralField(grid, au, is_mean_zero=True)
    g1 = scale * forcing_oracle(au, params, nonlinearity)
    du, dv = by_branch(correct, g1 - g0)
    return SolverState(
        SpectralField(grid, au.coeffs + du, is_mean_zero=True),
        SpectralField(grid, av + dv, is_mean_zero=True),
        state.time + dt,
    )


STEP_PARAMS = [
    ModelParams(Model.NS),
    ModelParams(Model.HNS_EPS, epsilon=0.05),
    ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.05, alpha=0.1),
]
STEP_IDS = ["ns", "eps", "eps_alpha"]


def stepper_data(grid, params, seed):
    """(u0, u1) as run_simulation prepares them: dealiased, projected for the constrained models."""
    rng = np.random.default_rng(seed)
    u0, u1 = (dealias(random_band_limited(grid, rng, ncomp=grid.dim)) for _ in range(2))
    if params.model is Model.NS:
        return helmholtz_project(u0, "P"), None
    if params.model is Model.HNS_EPS:
        return helmholtz_project(u0, "P"), helmholtz_project(u1, "P")
    return u0, u1


def is_hermitian(F):
    return np.array_equal(_full(_half(F.coeffs)), F.coeffs)


@pytest.mark.parametrize("scheme", [Scheme.EXP_LINEAR_RK2, Scheme.RK4_FULL], ids=["etd2", "rk4"])
@pytest.mark.parametrize("params", STEP_PARAMS, ids=STEP_IDS)
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestStepper:
    def test_five_steps_match_oracle(self, grid, params, scheme):
        u0, u1 = stepper_data(grid, params, 14)
        cfg = StepperConfig(dt=0.01, t_end=0.05, scheme=scheme)
        expect = SolverState(u0, u1, 0.0)
        got = SolverState(u0, u1, 0.0)
        for _ in range(5):
            expect = step_oracle(expect, params, cfg)
            got = solvers.step(got, params, cfg)
        res = solvers.run_simulation(u0, u1, params, cfg)
        for state in (got, res.final):
            assert state.time == pytest.approx(0.05)
            assert_close(state.u.coeffs, expect.u.coeffs)
            if params.is_hyperbolic:
                assert_close(state.u_t.coeffs, expect.u_t.coeffs)
            else:
                assert state.u_t is None


@pytest.mark.parametrize("params", STEP_PARAMS, ids=STEP_IDS)
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestStepperCounts:
    def test_four_transforms_per_etd2_step(self, grid, params, monkeypatch):
        u0, u1 = stepper_data(grid, params, 15)
        cfg = StepperConfig(dt=0.01, t_end=0.03)
        state = SolverState(u0, u1, 0.0)
        calls = count_transforms(monkeypatch)
        for _ in range(3):
            state = solvers.step(state, params, cfg)
        assert calls == ["irfftn", "rfftn"] * 6, calls

    def test_no_completion_between_snapshots(self, grid, params, monkeypatch):
        u0, u1 = stepper_data(grid, params, 16)
        cfg = StepperConfig(dt=0.01, t_end=0.09, snapshot_every=3)
        calls = []

        def counting(half):
            calls.append(half.shape)
            return _full(half)

        monkeypatch.setattr(solvers, "_full", counting)
        monkeypatch.setattr(spectral, "_full", counting)
        # a probe that does not read the state completes nothing; one that reads u completes it once
        quiet = solvers.run_simulation(u0, u1, params, cfg, probes={"n": lambda st: len(calls)})
        assert quiet.probes["n"] == [0, 0, 0, 0]
        del calls[:]
        reads = {"n": lambda st: len(calls), "l2": lambda st: sobolev_norm(st.u, 0.0)}
        loud = solvers.run_simulation(u0, u1, params, cfg, probes=reads)
        assert loud.probes["n"] == [0, 1, 2, 3]
        assert len(calls) == 4


@pytest.mark.parametrize(
    "params, scheme",
    [(p, Scheme.EXP_LINEAR_RK2) for p in STEP_PARAMS] + [(p, Scheme.RK4_FULL) for p in STEP_PARAMS],
    ids=STEP_IDS + [f"{i}-rk4" for i in STEP_IDS],
)
def test_state_exactly_hermitian_without_dealiasing(params, scheme):
    # with dealias_fraction = 1 the Leray projection leaves Nyquist content that
    # is not Hermitian, and so would the penalty's grad(div u) on the full
    # spectrum; both schemes keep the half spectrum of the real field
    grid = GridSpec(2, 16, dealias_fraction=1.0)
    u0 = full_band(grid, 17, ncomp=2)
    u1 = full_band(grid, 18, ncomp=2) if params.is_hyperbolic else None
    cfg = StepperConfig(dt=1e-3, t_end=5e-3, scheme=scheme)
    res = solvers.run_simulation(u0, u1, params, cfg, keep_states=True)
    assert len(res.states) == 6
    for state in (*res.states, res.final):
        assert is_hermitian(state.u)
        assert state.u_t is None or is_hermitian(state.u_t)


CONSTRAINED_PARAMS = STEP_PARAMS[:2]
CONSTRAINED_IDS = STEP_IDS[:2]


def general_forcing(half, grid):
    """`_forcing_half` of the constrained models with the general form of the nonlinear term."""
    f = solvers._nonlinear_half(half, grid)
    f -= solvers._q_half(f, grid)
    f[(slice(None), *(0,) * grid.dim)] = 0.0
    return f


def force_general_form(monkeypatch):
    """Make every forcing evaluation take the general form, whatever the model and grid."""
    nonlinear_half = solvers._nonlinear_half
    monkeypatch.setattr(
        solvers, "_nonlinear_half", lambda half, grid, solenoidal=False: nonlinear_half(half, grid)
    )


def record_batches(monkeypatch):
    """(name, input shape) of every rfftn and irfftn call from now on."""
    calls = []

    def recording(fn):
        def wrapper(a, *args, **kwargs):
            calls.append((fn.__name__, a.shape))
            return fn(a, *args, **kwargs)

        return wrapper

    for name in ("rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name)))
    return calls


@pytest.mark.parametrize("params", CONSTRAINED_PARAMS, ids=CONSTRAINED_IDS)
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestDivergenceForm:
    def test_forcing_matches_general_form(self, grid, params):
        u0, u1 = stepper_data(grid, params, 19)
        state = SolverState(u0, u1, 0.0)
        cfg = StepperConfig(dt=0.01, t_end=0.03)
        for _ in range(4):
            half = state._halves()[0]
            got = solvers._forcing_half(half, grid, params, True)
            assert_close(got, general_forcing(half, grid))
            state = solvers.step(state, params, cfg)

    def test_no_dealiasing_steps_are_general_form(self, grid, params, monkeypatch):
        # a projected full-band state has a discrete divergence that is not rounding
        g = GridSpec(grid.dim, grid.n_per_axis, dealias_fraction=1.0)
        u0 = full_band(g, 20, ncomp=g.dim)
        u1 = full_band(g, 21, ncomp=g.dim) if params.is_hyperbolic else None
        cfg = StepperConfig(dt=1e-3, t_end=3e-3)
        got = solvers.run_simulation(u0, u1, params, cfg).final._halves()
        force_general_form(monkeypatch)
        expect = solvers.run_simulation(u0, u1, params, cfg).final._halves()
        assert all(np.array_equal(a, b) for a, b in zip(got, expect))


FORM_CASES = [
    (STEP_PARAMS[0], 2.0 / 3.0, True),
    (STEP_PARAMS[1], 2.0 / 3.0, True),
    (STEP_PARAMS[2], 2.0 / 3.0, False),
    (STEP_PARAMS[0], 1.0, False),
    (STEP_PARAMS[1], 1.0, False),
]
FORM_IDS = ["ns", "eps", "eps_alpha", "ns-nodealias", "eps-nodealias"]


@pytest.mark.parametrize("params, fraction, solenoidal", FORM_CASES, ids=FORM_IDS)
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_forcing_transform_batches(grid, params, fraction, solenoidal, monkeypatch):
    # the divergence form transforms u inverse and the products u_i u_j forward;
    # the general form adds div u and the products (div u) u_j
    g = GridSpec(grid.dim, grid.n_per_axis, dealias_fraction=fraction)
    d = g.dim
    u0, u1 = stepper_data(g, params, 22)
    state = SolverState(u0, u1, 0.0)
    cfg = StepperConfig(dt=0.01, t_end=0.02)
    calls = record_batches(monkeypatch)
    for _ in range(2):
        state = solvers.step(state, params, cfg)
    n_inverse = d if solenoidal else d + 1
    n_forward = d * (d + 1) // 2 + (0 if solenoidal else d)
    half = (*g.shape[:-1], g.n_per_axis // 2 + 1)
    expect = [("irfftn", (n_inverse, *half)), ("rfftn", (n_forward, *g.shape))] * 4
    assert calls == expect, calls
