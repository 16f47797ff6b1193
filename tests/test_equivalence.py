"""Half-spectrum fields, transforms, linear flow, stepper and sampler against full-spectrum forms.

A SpectralField holds the rfftn half spectrum of a real field.  Each oracle
here is an earlier implementation on full coefficient arrays: it completes
its input with `_full` and keeps its own arithmetic (complex fftn/ifftn, a
Hermitian projection after every forward transform, full-grid multiplier
tables, the nonlinear term as one collocation product per component plus
one for (div u) u, the exact linear flow and the ETD2 and RK4 steps with
both Helmholtz projections of each datum per branch, and the
Littlewood-Paley sampler, ratio generators and C3 loop with full-spectrum
norms and the complex padded product).  The general form of the nonlinear
term is the oracle of the divergence form the constrained models' forcing
takes.  Full-band fields (kmax = n) carry Nyquist content, where a
full-grid derivative along any axis but the last is not Hermitian, and
neither is a full-grid Helmholtz projection; the package's odd multipliers
are zero at the Nyquist index, so every operator returns a real field.
"""

import numpy as np
import pytest

import hnslab.experiments as experiments
import hnslab.littlewood_paley as littlewood_paley
import hnslab.solvers as solvers
import hnslab.spectral as spectral
from hnslab.experiments import BumpSpec, FrontReport, finite_speed_experiment, support_radius
from hnslab.littlewood_paley import INEQUALITY_NAMES, verify_inequality
from hnslab.solvers import (
    Model,
    ModelParams,
    Scheme,
    SolverState,
    StepperConfig,
    evolve_linear,
    nonlinear_term,
)
from hnslab.spectral import (
    GridSpec,
    PhysicalField,
    SpectralField,
    _full,
    _half,
    _padded_half,
    dealias,
    divergence,
    gaussian_bump,
    gradient,
    helmholtz_project,
    lambda_power,
    laplacian,
    linf_norm,
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


# ---------------------------------------------------------------------------
# full-grid tables and full-spectrum operators (oracles)
# ---------------------------------------------------------------------------


def full_index_vectors(grid):
    n = grid.n_per_axis
    j = np.fft.fftfreq(n, d=1.0 / n)
    return [j.reshape([n if a == ax else 1 for a in range(grid.dim)]) for ax in range(grid.dim)]


def full_wavenumbers(grid):
    return [grid.k_fundamental * j for j in full_index_vectors(grid)]


def full_index_magnitude(grid):
    m2 = np.zeros(grid.shape)
    for j in full_index_vectors(grid):
        m2 = m2 + j * j
    return np.sqrt(m2)


def full_k_squared(grid):
    return (grid.k_fundamental * full_index_magnitude(grid)) ** 2


def full_dealias(c, grid):
    cut = np.floor(grid.dealias_fraction * (grid.n_per_axis // 2))
    mask = np.ones(grid.shape, dtype=bool)
    for j in full_index_vectors(grid):
        mask &= np.abs(j) <= cut
    return c * mask


def nyquist_free(grid):
    """Full-grid mask of the modes with no index at the Nyquist index n/2."""
    mask = np.ones(grid.shape, dtype=bool)
    for j in full_index_vectors(grid):
        mask &= np.abs(j) < grid.n_per_axis // 2
    return mask


def hermitianize_oracle(coeffs, dim):
    rev = coeffs
    for ax in range(1, dim + 1):
        rev = np.roll(np.flip(rev, axis=ax), 1, axis=ax)
    return 0.5 * (coeffs + np.conj(rev))


def samples_oracle(c, grid):
    return np.fft.ifftn(c, axes=axes(grid), norm="forward").real


def to_spectral_oracle(grid, values):
    coeffs = np.fft.fftn(values, axes=axes(grid), norm="forward")
    return hermitianize_oracle(coeffs, grid.dim)


def derivative_oracle(c, grid, axis):
    return c * (1j * full_wavenumbers(grid)[axis])


def divergence_oracle(c, grid):
    return sum(derivative_oracle(c[i], grid, i) for i in range(grid.dim))[np.newaxis]


def helmholtz_oracle(c, grid, which):
    ks = full_wavenumbers(grid)
    k2 = full_k_squared(grid)
    inv = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)
    kdot = sum(k * c[i] for i, k in enumerate(ks)) * inv
    q = np.stack([k * kdot for k in ks])
    return q if which == "Q" else c - q


def remove_mean_oracle(c, grid):
    out = c.copy()
    out[(slice(None), *(0,) * grid.dim)] = 0.0
    return out


def norm_oracle(c, grid, sigma):
    """Full Plancherel sum sqrt(L^d sum_k |k|^(2 sigma) |c(k)|^2); k = 0 counts only at sigma = 0."""
    ka = grid.k_fundamental * full_index_magnitude(grid)
    w = np.ones_like(ka) if sigma == 0 else np.where(ka > 0, ka, 1.0) ** (2.0 * sigma) * (ka > 0)
    return float(np.sqrt(grid.domain_length**grid.dim * np.sum(w * np.sum(np.abs(c) ** 2, axis=0))))


def lp_oracle(c, grid, p):
    mag = np.sqrt(np.sum(samples_oracle(c, grid) ** 2, axis=0))
    if np.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag**p) * grid.spacing**grid.dim) ** (1.0 / p))


def spectral_product_oracle(a, b, grid):
    vals = samples_oracle(a, grid) * samples_oracle(b, grid)
    return full_dealias(to_spectral_oracle(grid, vals), grid)


def padded_product_oracle(a, b, grid):
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
    fa = np.fft.ifftn(pad(a), axes=big_axes, norm="forward").real
    fb = np.fft.ifftn(pad(b), axes=big_axes, norm="forward").real
    big = np.fft.fftn(fa * fb, axes=big_axes, norm="forward")
    ncomp = big.shape[0]
    out = np.zeros((ncomp,) + grid.shape, dtype=np.complex128)
    out[np.ix_(range(ncomp), *[src] * grid.dim)] = big[np.ix_(range(ncomp), *[idx] * grid.dim)]
    return hermitianize_oracle(out, grid.dim)


def nonlinear_oracle(c, grid):
    """sum_i d_i(u_i u) - (div u) u, negated: 3(d+1) complex transforms."""
    out = np.zeros_like(c)
    for i in range(grid.dim):
        out += derivative_oracle(spectral_product_oracle(c[i : i + 1], c, grid), grid, i)
    out -= spectral_product_oracle(divergence_oracle(c, grid), c, grid)
    return -out


def propagator_oracle(params, grid, t, damping, branch):
    """The per-mode table (A, B, A', B') of one branch on the full grid."""
    c = params.c1 if branch == "Q" and params.model is Model.HNS_EPS_ALPHA else params.c2
    c2k2 = c * c * full_k_squared(grid)
    return solvers._mode_functions(t, params.epsilon, 1.0 if damping else 0.0, c2k2)


def evolve_linear_oracle(c0, c1, params, grid, t, damping=True):
    """(u, u_t) at t from full-spectrum tables and two projections of each full datum."""
    out_u = np.zeros_like(c0)
    out_v = np.zeros_like(c0)
    for which in "PQ":
        pu = helmholtz_oracle(c0, grid, which)
        pv = helmholtz_oracle(c1, grid, which)
        A, B, Ap, Bp = propagator_oracle(params, grid, t, damping, which)
        out_u += A * pu + B * pv
        out_v += Ap * pu + Bp * pv
    return remove_mean_oracle(out_u, grid), remove_mean_oracle(out_v, grid)


def front_oracle(params, grid, spec, damping, n_samples):
    """The earlier front sampling loop: evolve_linear_oracle and one full inverse per sample."""
    center = spec.center or (grid.domain_length / 2.0,) * grid.dim
    u0, phys0 = experiments._bump_data(spec, grid)
    c0 = _full(u0.coeffs)
    theta = 1e-8 * float(np.max(np.sqrt(np.sum(phys0.values**2, axis=0))))
    R0 = support_radius(phys0, center, theta)
    h = grid.spacing
    speed = params.c2 if spec.kind == "solenoidal" else params.c1
    times = np.linspace(0.0, 0.8 * (grid.domain_length / 2.0 - R0 - 4.0 * h) / speed, n_samples + 1)
    radii = []
    for t in times:
        u, _ = evolve_linear_oracle(c0, np.zeros_like(c0), params, grid, float(t), damping)
        radii.append(support_radius(PhysicalField(grid, samples_oracle(u, grid)), center, theta))
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


def stands_for_real_field(F):
    """The coefficients are those of the real field they stand for, to_spectral(to_physical(F))."""
    assert_close(to_spectral(to_physical(F)).coeffs, F.coeffs)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestTransforms:
    def test_to_physical_arbitrary_complex(self, grid):
        # the planes j = 0 and j = n/2 of an arbitrary array are not Hermitian;
        # they are read through their Hermitian part, as the completion holds it
        rng = np.random.default_rng(1)
        shape = (grid.dim, *grid.spectral_shape)
        F = SpectralField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        assert_close(to_physical(F).values, samples_oracle(_full(F.coeffs), grid))

    def test_to_physical_full_band_derivatives(self, grid):
        # the full-grid derivative is not Hermitian at the Nyquist index; the
        # real field it stands for is that of the package's derivative
        F = full_band(grid, 2)
        c = _full(F.coeffs)
        for ax in range(grid.dim):
            D = partial_derivative(F, ax)
            expect = samples_oracle(derivative_oracle(c, grid, ax), grid)
            assert_close(to_physical(D).values, expect)
        G = gradient(F)
        expect = np.concatenate([derivative_oracle(c, grid, ax) for ax in range(grid.dim)])
        assert_close(to_physical(G).values, samples_oracle(expect, grid))

    def test_to_spectral(self, grid):
        values = np.random.default_rng(3).normal(size=(grid.dim, *grid.shape))
        got = to_spectral(PhysicalField(grid, values)).coeffs
        assert got.shape == (grid.dim, *grid.spectral_shape)
        assert_close(_full(got), to_spectral_oracle(grid, values))

    def test_padded_product_full_band(self, grid):
        f = full_band(grid, 4)
        v = full_band(grid, 5, ncomp=grid.dim)
        for F, G in [(f, v), (v, v), (partial_derivative(v, 0), v)]:
            expect = padded_product_oracle(_full(F.coeffs), _full(G.coeffs), grid)
            assert_close(_full(padded_product(F, G).coeffs), expect)


REAL_FIELD_OPS = {
    "partial_derivative": lambda f, v: [partial_derivative(v, ax) for ax in range(v.grid.dim)],
    "gradient": lambda f, v: [gradient(f)],
    "divergence": lambda f, v: [divergence(v)],
    "helmholtz_P": lambda f, v: [helmholtz_project(v, "P")],
    "helmholtz_Q": lambda f, v: [helmholtz_project(v, "Q")],
    "laplacian": lambda f, v: [laplacian(v)],
    "lambda_power": lambda f, v: [lambda_power(v, 0.5), lambda_power(f, -1.0)],
    "dealias": lambda f, v: [dealias(v)],
    "padded_product": lambda f, v: [padded_product(partial_derivative(v, 0), v)],
    "nonlinear_term": lambda f, v: [nonlinear_term(v)],
}


@pytest.mark.parametrize("name", REAL_FIELD_OPS)
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_operator_returns_real_field(grid, name):
    # full-band data keeps every Nyquist mode, where an odd multiplier on the
    # full grid leaves a part that no real field has
    f = full_band(grid, 23)
    v = full_band(grid, 24, ncomp=grid.dim)
    for out in REAL_FIELD_OPS[name](f, v):
        assert np.max(np.abs(out.coeffs)) > 0
        stands_for_real_field(out)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestNonlinearTerm:
    def test_dealiased(self, grid):
        u = dealias(random_band_limited(grid, np.random.default_rng(6), ncomp=grid.dim))
        assert_close(_full(nonlinear_term(u).coeffs), nonlinear_oracle(_full(u.coeffs), grid))

    def test_full_band_hermitian(self, grid):
        u = full_band(grid, 7, ncomp=grid.dim)
        assert_close(_full(nonlinear_term(u).coeffs), nonlinear_oracle(_full(u.coeffs), grid))

    def test_projected_full_band_no_dealiasing(self, grid):
        # with dealias_fraction = 1 a Helmholtz-projected full-band field keeps
        # its Nyquist content, and stays a real field
        g = GridSpec(grid.dim, grid.n_per_axis, dealias_fraction=1.0)
        u = helmholtz_project(full_band(g, 9, ncomp=g.dim), "P")
        assert np.max(np.abs(_full(u.coeffs)[:, ~nyquist_free(g)])) > 0
        stands_for_real_field(u)
        got = nonlinear_term(u)
        stands_for_real_field(got)
        # the oracle's Nyquist derivatives leave a non-Hermitian part that no
        # real field has, so compare the real fields
        expect = samples_oracle(nonlinear_oracle(_full(u.coeffs), g), g)
        assert_close(to_physical(got).values, expect)

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
        c0, c1 = _full(u0.coeffs), _full(u1.coeffs)
        oracle = evolve_linear_oracle(c0, c1, params, grid, 0.3, damping)
        # the full-grid projections split a Nyquist mode differently from the
        # package's, whose wavevector is zero at the Nyquist index; with equal
        # branch tables the split does not matter
        modes = np.ones(grid.shape, dtype=bool)
        if params.model is Model.HNS_EPS_ALPHA:
            modes = nyquist_free(grid)
        for field, expect in zip((got.u, got.u_t), oracle):
            real = hermitianize_oracle(expect, grid.dim)
            if params.model is Model.HNS_EPS_ALPHA:
                # the branches' projections leave a Nyquist part that is not
                # Hermitian; with equal branch tables it cancels
                assert not np.allclose(expect, real)
            assert_close(_full(field.coeffs)[:, modes], real[:, modes])
            stands_for_real_field(field)

    def test_dealiased_matches_oracle(self, grid, params, damping):
        rng = np.random.default_rng(12)
        u0, u1 = (dealias(random_band_limited(grid, rng, ncomp=grid.dim)) for _ in range(2))
        got = evolve_linear(u0, u1, params, 0.3, damping=damping)
        c0, c1 = _full(u0.coeffs), _full(u1.coeffs)
        oracle = evolve_linear_oracle(c0, c1, params, grid, 0.3, damping)
        for field, expect in zip((got.u, got.u_t), oracle):
            assert_close(_full(field.coeffs), expect)


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

    def test_front_experiment_transforms_bump_once(self, monkeypatch):
        # one forward transform of the bump, one inverse of it for its peak,
        # threshold and initial radius, and one inverse per sample time
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-1, alpha=1e-1)
        calls = count_transforms(monkeypatch)
        finite_speed_experiment(params, GridSpec(2, 128), BumpSpec("mixed"), n_samples=4)
        assert sorted(calls) == ["irfftn"] * 6 + ["rfftn"], calls


def forcing_oracle(c, params, grid, nonlinearity):
    """Full-spectrum forcing: f(u), Leray-projected for the constrained models, mean removed."""
    if not nonlinearity:
        return np.zeros_like(c)
    f = nonlinear_oracle(c, grid)
    if params.model in (Model.NS, Model.HNS_EPS):
        f = helmholtz_oracle(f, grid, "P")
    return remove_mean_oracle(f, grid)


def etd2_tables_oracle(params, grid, dt):
    """The ETD2 tables on the full grid: (E, J0, K) for NS, else one 8-tuple per branch."""
    k2 = full_k_squared(grid)
    if params.model is Model.NS:
        z = -k2 * dt
        return np.exp(z), -np.expm1(z) / np.where(k2 > 0, k2, 1.0), dt * solvers._phi2(z)
    tabs = []
    for branch in "PQ":
        A, B, Ap, Bp = propagator_oracle(params, grid, dt, True, branch)
        c = params.c1 if branch == "Q" and params.model is Model.HNS_EPS_ALPHA else params.c2
        c2k2 = c * c * k2
        ge = 1.0 / params.epsilon
        safe = np.where(c2k2 > 0, c2k2, 1.0)
        j0u = (1.0 - Bp - ge * B) / safe
        j1u = dt * (-ge * B - Bp) / safe - (-ge * j0u - B) / safe
        j1v = dt * B - j0u
        tabs.append((A, B, Ap, Bp, j0u, B, j0u - j1u / dt, B - j1v / dt))
    return tabs


def step_oracle(u, v, params, cfg, grid, nonlinearity=True):
    """One step on full coefficient arrays, splitting both Helmholtz branches each stage."""
    dt = cfg.dt
    if cfg.scheme is Scheme.RK4_FULL:

        def rhs(u, v):
            f = forcing_oracle(u, params, grid, nonlinearity)
            lap = -full_k_squared(grid) * u
            if params.model is Model.NS:
                return lap + f, None
            acc = lap - v + f
            if params.model is Model.HNS_EPS_ALPHA:
                div = divergence_oracle(u, grid)[0]
                grad = np.stack([derivative_oracle(div, grid, i) for i in range(grid.dim)])
                acc = acc + grad / params.alpha
            return v, acc / params.epsilon

        def advance(k, factor):
            return u + factor * k[0], None if k[1] is None else v + factor * k[1]

        k1 = rhs(u, v)
        k2 = rhs(*advance(k1, dt / 2))
        k3 = rhs(*advance(k2, dt / 2))
        k4 = rhs(*advance(k3, dt))
        unew = u + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        if k1[1] is None:
            return unew, None
        return unew, v + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    tables = etd2_tables_oracle(params, grid, dt)
    if params.model is Model.NS:
        E, J0, K = tables
        g0 = forcing_oracle(u, params, grid, nonlinearity)
        a = remove_mean_oracle(E * u + J0 * g0, grid)
        g1 = forcing_oracle(a, params, grid, nonlinearity)
        return remove_mean_oracle(a + K * (g1 - g0), grid), None

    def by_branch(kernel, *arrays):
        out = None
        for tab, which in zip(tables, "PQ"):
            part = kernel(tab, *(helmholtz_oracle(x, grid, which) for x in arrays))
            out = part if out is None else tuple(a + b for a, b in zip(out, part))
        return out

    def predict(tab, u, v, g):
        A, B, Ap, Bp, j0u, j0v, _, _ = tab
        return A * u + B * v + j0u * g, Ap * u + Bp * v + j0v * g

    def correct(tab, dg):
        return tab[6] * dg, tab[7] * dg

    scale = 1.0 / params.epsilon
    g0 = scale * forcing_oracle(u, params, grid, nonlinearity)
    au, av = by_branch(predict, u, v, g0)
    au = remove_mean_oracle(au, grid)
    g1 = scale * forcing_oracle(au, params, grid, nonlinearity)
    du, dv = by_branch(correct, g1 - g0)
    return remove_mean_oracle(au + du, grid), remove_mean_oracle(av + dv, grid)


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


@pytest.mark.parametrize("scheme", [Scheme.EXP_LINEAR_RK2, Scheme.RK4_FULL], ids=["etd2", "rk4"])
@pytest.mark.parametrize("params", STEP_PARAMS, ids=STEP_IDS)
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestStepper:
    def test_five_steps_match_oracle(self, grid, params, scheme):
        u0, u1 = stepper_data(grid, params, 14)
        cfg = StepperConfig(dt=0.01, t_end=0.05, scheme=scheme)
        expect = (_full(u0.coeffs), None if u1 is None else _full(u1.coeffs))
        got = SolverState(u0, u1, 0.0)
        for _ in range(5):
            expect = step_oracle(*expect, params, cfg, grid)
            got = solvers.step(got, params, cfg)
        res = solvers.run_simulation(u0, u1, params, cfg)
        for state in (got, res.final):
            assert state.time == pytest.approx(0.05)
            assert_close(_full(state.u.coeffs), expect[0])
            if params.is_hyperbolic:
                assert_close(_full(state.u_t.coeffs), expect[1])
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
        full = spectral._full

        def counting(half):
            calls.append(half.shape)
            return full(half)

        monkeypatch.setattr(spectral, "_full", counting)
        # the states are half spectra: neither the loop nor a probe that reads
        # them completes one
        quiet = solvers.run_simulation(u0, u1, params, cfg, probes={"n": lambda st: len(calls)})
        assert quiet.probes["n"] == [0, 0, 0, 0]
        reads = {"n": lambda st: len(calls), "l2": lambda st: sobolev_norm(st.u, 0.0)}
        loud = solvers.run_simulation(u0, u1, params, cfg, probes=reads)
        assert loud.probes["n"] == [0, 0, 0, 0]
        assert calls == []


@pytest.mark.parametrize(
    "params, scheme",
    [(p, Scheme.EXP_LINEAR_RK2) for p in STEP_PARAMS] + [(p, Scheme.RK4_FULL) for p in STEP_PARAMS],
    ids=STEP_IDS + [f"{i}-rk4" for i in STEP_IDS],
)
def test_state_exactly_hermitian_without_dealiasing(params, scheme):
    # with dealias_fraction = 1 a full-grid Leray projection leaves Nyquist
    # content that is not Hermitian, and so would the penalty's grad(div u) on
    # the full spectrum; both schemes keep states that stand for real fields
    grid = GridSpec(2, 16, dealias_fraction=1.0)
    u0 = full_band(grid, 17, ncomp=2)
    u1 = full_band(grid, 18, ncomp=2) if params.is_hyperbolic else None
    cfg = StepperConfig(dt=1e-3, t_end=5e-3, scheme=scheme)
    res = solvers.run_simulation(u0, u1, params, cfg, keep_states=True)
    assert len(res.states) == 6
    for state in (*res.states, res.final):
        stands_for_real_field(state.u)
        if state.u_t is not None:
            stands_for_real_field(state.u_t)


CONSTRAINED_PARAMS = STEP_PARAMS[:2]
CONSTRAINED_IDS = STEP_IDS[:2]


def general_forcing(u, grid):
    """`_forcing` of the constrained models with the general form of the nonlinear term."""
    f = solvers._nonlinear(u, grid)
    f -= spectral._irrotational(f, grid)
    f[(slice(None), *(0,) * grid.dim)] = 0.0
    return f


def force_general_form(monkeypatch):
    """Make every forcing evaluation take the general form, whatever the model and grid."""
    nonlinear = solvers._nonlinear

    def general(u, grid, solenoidal=False, out=None):
        return nonlinear(u, grid, out=out)

    monkeypatch.setattr(solvers, "_nonlinear", general)


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


def coefficients(state):
    return [F.coeffs for F in (state.u, state.u_t) if F is not None]


@pytest.mark.parametrize("params", CONSTRAINED_PARAMS, ids=CONSTRAINED_IDS)
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestDivergenceForm:
    def test_forcing_matches_general_form(self, grid, params):
        u0, u1 = stepper_data(grid, params, 19)
        state = SolverState(u0, u1, 0.0)
        cfg = StepperConfig(dt=0.01, t_end=0.03)
        for _ in range(4):
            u = state.u.coeffs
            assert_close(solvers._forcing(u, grid, params, True), general_forcing(u, grid))
            state = solvers.step(state, params, cfg)

    def test_no_dealiasing_steps_are_general_form(self, grid, params, monkeypatch):
        # with dealias_fraction = 1 the forcing keeps the general form
        g = GridSpec(grid.dim, grid.n_per_axis, dealias_fraction=1.0)
        u0 = full_band(g, 20, ncomp=g.dim)
        u1 = full_band(g, 21, ncomp=g.dim) if params.is_hyperbolic else None
        cfg = StepperConfig(dt=1e-3, t_end=3e-3)
        got = coefficients(solvers.run_simulation(u0, u1, params, cfg).final)
        force_general_form(monkeypatch)
        expect = coefficients(solvers.run_simulation(u0, u1, params, cfg).final)
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


# ---------------------------------------------------------------------------
# the workspace ETD2 step against the allocating one
# ---------------------------------------------------------------------------


def irrotational_oracle(x, grid):
    """The allocating Q projection k (k.x)/|k|^2 on the half spectrum."""
    ks = spectral._odd_wavenumbers(grid)
    kdot = ks[0] * x[0]
    for i in range(1, grid.dim):
        kdot += ks[i] * x[i]
    kdot *= spectral._inv_k_squared(grid)
    return np.stack([k * kdot for k in ks])


def nonlinear_half_oracle(u, grid, solenoidal):
    """The allocating half-spectrum nonlinear term, one expression per intermediate."""
    dim = grid.dim
    ik = spectral._derivatives(grid)
    rows, cols, pair = solvers._product_pairs(dim)
    npairs = rows.size
    if solenoidal:
        phys = spectral._irfft(u)
        prods = np.empty((npairs, *phys.shape[1:]))
    else:
        stack = np.empty((dim + 1, *u.shape[1:]), dtype=np.complex128)
        stack[:dim] = u
        np.multiply(ik[0], u[0], out=stack[dim])
        for i in range(1, dim):
            stack[dim] += ik[i] * u[i]
        phys = spectral._irfft(stack)
        prods = np.empty((npairs + dim, *phys.shape[1:]))
        np.multiply(phys[dim], phys[:dim], out=prods[npairs:])
    np.multiply(phys[rows], phys[cols], out=prods[:npairs])
    prods = spectral._rfft(prods)
    out = np.zeros((dim, *prods.shape[1:]), dtype=np.complex128) if solenoidal else prods[npairs:]
    for j in range(dim):
        for i in range(dim):
            out[j] -= ik[i] * prods[pair[i, j]]
    out *= spectral.dealias_mask(grid)
    return out


def allocating_step_oracle(u, v, params, dt, grid):
    """The ETD2 step with a fresh array for every intermediate, in the stepper's operation order."""
    tables = solvers._etd2_tables(params.model, params.epsilon, params.alpha, grid, dt)
    mean = (slice(None), *(0,) * grid.dim)
    constrained = params.model in (Model.NS, Model.HNS_EPS)

    def forcing(x):
        f = nonlinear_half_oracle(x, grid, constrained and grid.k_max_dealiased < grid.k_max)
        if constrained:
            f -= irrotational_oracle(f, grid)
        f[mean] = 0.0
        return f

    if params.model is Model.NS:
        E, J0, K = tables
        g0 = forcing(u)
        a = E * u + J0 * g0
        a[mean] = 0.0
        unew = a + K * (forcing(a) - g0)
        unew[mean] = 0.0
        return unew, None

    def by_branch(kernel, *arrays):
        P, Q = tables
        if Q is P:
            return kernel(P, *arrays)
        qs = [irrotational_oracle(x, grid) for x in arrays]
        out_p = kernel(P, *(x - q for x, q in zip(arrays, qs)))
        out_q = kernel(Q, *qs)
        return tuple(a + b for a, b in zip(out_p, out_q))

    def predict(tab, u, v, g):
        A, B, Ap, Bp, j0u, j0v, _, _ = tab
        return A * u + B * v + j0u * g, Ap * u + Bp * v + j0v * g

    def correct(tab, dg):
        return tab[6] * dg, tab[7] * dg

    scale = 1.0 / params.epsilon
    g0 = scale * forcing(u)
    au, av = by_branch(predict, u, v, g0)
    au[mean] = 0.0
    du, dv = by_branch(correct, scale * forcing(au) - g0)
    unew, vnew = au + du, av + dv
    unew[mean] = vnew[mean] = 0.0
    return unew, vnew


def workspace_data(grid, params, seed):
    """Stepper data on grid, full-band when dealias_fraction = 1, as `run_simulation` prepares it."""
    if grid.dealias_fraction < 1:
        return stepper_data(grid, params, seed)
    rng = np.random.default_rng(seed)
    u0, u1 = (random_band_limited(grid, rng, ncomp=grid.dim, kmax=grid.n_per_axis) for _ in "uv")
    if params.model is not Model.HNS_EPS_ALPHA:
        u0, u1 = helmholtz_project(u0, "P"), helmholtz_project(u1, "P")
    return u0, u1 if params.is_hyperbolic else None


@pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0], ids=["dealias", "nodealias"])
@pytest.mark.parametrize("params", STEP_PARAMS, ids=STEP_IDS)
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestWorkspaceStep:
    def test_five_steps_equal_allocating_step(self, grid, params, fraction):
        g = GridSpec(grid.dim, grid.n_per_axis, dealias_fraction=fraction)
        u0, u1 = workspace_data(g, params, 23)
        cfg = StepperConfig(dt=0.002, t_end=0.01)
        expect = (u0.coeffs, None if u1 is None else u1.coeffs)
        state = SolverState(u0, u1, 0.0)
        for _ in range(5):
            expect = allocating_step_oracle(*expect, params, cfg.dt, g)
            state = solvers.step(state, params, cfg)
            for got, want in zip(coefficients(state), expect):
                assert np.array_equal(got, want)

    def test_returned_states_are_values(self, grid, params, fraction):
        g = GridSpec(grid.dim, grid.n_per_axis, dealias_fraction=fraction)
        u0, u1 = workspace_data(g, params, 24)
        cfg = StepperConfig(dt=0.002, t_end=0.01)
        first = solvers.step(SolverState(u0, u1, 0.0), params, cfg)
        kept = [c.copy() for c in coefficients(first)]
        # two steps from one state give equal arrays, none of them shared
        again = solvers.step(first, params, cfg)
        other = solvers.step(first, params, cfg)
        for a, b in zip(coefficients(again), coefficients(other)):
            assert np.array_equal(a, b) and not np.shares_memory(a, b)
        # later steps, and a probe calling nonlinear_term between them, leave it alone
        state = first
        for _ in range(3):
            nonlinear_term(state.u)
            state = solvers.step(state, params, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(coefficients(first), kept))
        res = solvers.run_simulation(u0, u1, params, cfg, keep_states=True)
        arrays = [c for st in res.states for c in coefficients(st)]
        assert len(res.states) == 6
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[:i])


# ---------------------------------------------------------------------------
# Littlewood-Paley samples
# ---------------------------------------------------------------------------


def random_band_limited_oracle(
    grid, rng, ncomp=1, kmin=1, kmax=None, decay=2.0, amplitude=1.0, divergence_free=False
):
    """The full-spectrum sampler: completion, full-grid projection, peak of the completed field."""
    if kmax is None:
        kmax = int(np.floor(grid.dealias_fraction * (grid.n_per_axis // 2)))
    m = full_index_magnitude(grid)
    band = (m >= kmin) & (m <= kmax)
    envelope = np.zeros_like(m)
    envelope[band] = m[band] ** (-decay)
    shape = (ncomp, *grid.shape)
    raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c = remove_mean_oracle(_full(_half(raw * envelope)), grid)
    if divergence_free:
        c = helmholtz_oracle(c, grid, "P")
    peak = linf_norm(SpectralField(grid, _half(c)))  # the sampler's own peak, as before
    return c * (amplitude / peak) if peak > 0 else c


def probe_fields_oracle(grid, ncomp):
    L = grid.domain_length
    probes = []
    for frac in (8.0, 16.0, 32.0):
        bump = to_spectral_oracle(grid, gaussian_bump(grid, sigma=L / frac).values)
        bump = full_dealias(remove_mean_oracle(bump, grid), grid)
        probes.append(np.concatenate([bump] * ncomp))
    for kidx in (1, 2):
        mode = np.zeros((ncomp, *grid.shape), dtype=np.complex128)
        rest = (0,) * (grid.dim - 1)
        mode[(0, kidx, *rest)] = 1.0 / 2j
        mode[(0, -kidx, *rest)] = -1.0 / 2j
        probes.append(mode)
    return probes


def sample_stream_oracle(grid, rng, trials, ncomp=1, divergence_free=False):
    probes = [] if divergence_free else probe_fields_oracle(grid, ncomp)
    for t in range(trials):
        if t < len(probes):
            yield probes[t]
        else:
            decay = rng.uniform(0.6, 3.0)
            c = random_band_limited_oracle(
                grid, rng, ncomp=ncomp, decay=decay, divergence_free=divergence_free
            )
            yield full_dealias(c, grid)


def div_lp_oracle(grid, rng, trials, delta, divergence_free=False, **_):
    sigma_hi = grid.dim / 2.0 + delta
    for u in sample_stream_oracle(grid, rng, trials, grid.dim, divergence_free):
        prod = padded_product_oracle(divergence_oracle(u, grid), u, grid)
        rhs = norm_oracle(u, grid, sigma_hi) * lp_oracle(u, grid, np.inf)
        yield norm_oracle(prod, grid, sigma_hi - 1.0), rhs


def ladyzhenskaya_oracle(grid, rng, trials, **_):
    for f in sample_stream_oracle(grid, rng, trials):
        yield lp_oracle(f, grid, 4) ** 2, lp_oracle(f, grid, 2) * norm_oracle(f, grid, 1.0)


def besov_interp_oracle(grid, rng, trials, delta=0.5, **_):
    sigma_lo = grid.dim / 2.0 - 1.0 + delta
    for f in sample_stream_oracle(grid, rng, trials):
        rhs = norm_oracle(f, grid, sigma_lo) ** delta
        rhs *= norm_oracle(f, grid, sigma_lo + 1.0) ** (1.0 - delta)
        yield lp_oracle(f, grid, np.inf), rhs


def tame_oracle(grid, rng, trials, s=1.5, **_):
    for f in sample_stream_oracle(grid, rng, trials):
        g = random_band_limited_oracle(grid, rng, ncomp=1, decay=rng.uniform(0.6, 3.0))
        g = full_dealias(g, grid)
        lhs = norm_oracle(padded_product_oracle(f, g, grid), grid, s)
        rhs = lp_oracle(f, grid, np.inf) * norm_oracle(g, grid, s)
        yield lhs, rhs + norm_oracle(f, grid, s) * lp_oracle(g, grid, np.inf)


def bernstein_oracle(grid, rng, trials, **_):
    m = full_index_magnitude(grid)
    blocks = range(int(np.floor(np.log2(np.max(m)))) + 1)
    for f in sample_stream_oracle(grid, rng, trials):
        best = 0.0
        for q in blocks:
            blk = f * ((m >= 2.0**q) & (m < 2.0 ** (q + 1)))
            l2 = norm_oracle(blk, grid, 0.0)
            if l2 > 1e-300:
                grad = np.concatenate([derivative_oracle(blk, grid, i) for i in range(grid.dim)])
                ratio = norm_oracle(grad, grid, 0.0) / (grid.k_fundamental * 2.0**q * l2)
                best = max(best, ratio)
        yield best, 1.0


def l3_embedding_oracle(grid, rng, trials, **_):
    for f in sample_stream_oracle(grid, rng, trials):
        yield lp_oracle(f, grid, 3), norm_oracle(f, grid, 0.5)


def nonlinear_oracle_ratio(grid, rng, trials, delta=0.5, **_):
    """The C3 loop of `estimate_constants`: (u.grad)u from one padded product per component."""
    for u in sample_stream_oracle(grid, rng, trials, grid.dim):
        conv = sum(
            padded_product_oracle(u[i : i + 1], derivative_oracle(u, grid, i), grid)
            for i in range(grid.dim)
        )
        rhs = lp_oracle(u, grid, np.inf) * norm_oracle(u, grid, 1.0 + delta)
        yield norm_oracle(conv, grid, delta), rhs


RATIO_CASES = [
    ("div_lp", div_lp_oracle, {"delta": 0.5}),
    ("div_lp", div_lp_oracle, {"delta": 0.5, "divergence_free": True}),
    ("ladyzhenskaya", ladyzhenskaya_oracle, {}),
    ("besov_interp", besov_interp_oracle, {"delta": 0.5}),
    ("tame", tame_oracle, {"s": 1.5}),
    ("bernstein", bernstein_oracle, {}),
    ("l3_embedding", l3_embedding_oracle, {}),
    ("nonlinear", nonlinear_oracle_ratio, {"delta": 0.5}),
]
RATIO_IDS = ["div_lp", "div_lp-div_free", "ladyzhenskaya", "besov_interp", "tame", "bernstein",
             "l3_embedding", "nonlinear"]  # fmt: skip
LP_GRIDS = [GridSpec(2, 32), GridSpec(3, 16)]
LP_TRIALS = 15


def ratio_generator(name):
    if name == "nonlinear":
        return littlewood_paley._ratio_nonlinear
    return littlewood_paley._RATIO_GENERATORS[name]


@pytest.mark.parametrize("name, oracle, params", RATIO_CASES, ids=RATIO_IDS)
@pytest.mark.parametrize("grid", LP_GRIDS, ids=["2d32", "3d16"])
def test_ratio_pairs_match_full_spectrum(grid, name, oracle, params):
    # 5 probes (none with divergence_free) and 10 or more random samples
    got = list(ratio_generator(name)(grid, np.random.default_rng(31), LP_TRIALS, **params))
    want = list(oracle(grid, np.random.default_rng(31), LP_TRIALS, **params))
    assert len(got) == len(want) == LP_TRIALS
    for pair, expect in zip(got, want):
        for g, w in zip(pair, expect):
            assert abs(g - w) <= RTOL * abs(w), (pair, expect)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize(
    "kwargs",
    [{}, {"divergence_free": True}, {"decay": 0.7, "amplitude": 0.3}, {"kmin": 3}, {"kmax": 16}],
    ids=["default", "div_free", "decay", "kmin", "full_band"],
)
def test_random_band_limited_matches_full_spectrum(grid, kwargs):
    rng, rng_oracle = np.random.default_rng(8), np.random.default_rng(8)
    got = random_band_limited(grid, rng, ncomp=grid.dim, **kwargs)
    want = random_band_limited_oracle(grid, rng_oracle, ncomp=grid.dim, **kwargs)
    assert_close(_full(got.coeffs), want)
    assert rng.random() == rng_oracle.random()  # the same draws


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_projected_full_band_sample_is_hermitian(grid):
    # a full-grid Leray projection breaks the Hermitian symmetry on the
    # Nyquist planes; the sampler's projection keeps the planes j = 0 and
    # j = n/2, which hold both k and -k, exactly Hermitian
    for seed in range(3):
        rng = np.random.default_rng(seed)
        kmax = grid.n_per_axis
        c = random_band_limited(grid, rng, ncomp=grid.dim, kmax=kmax, divergence_free=True).coeffs
        assert np.array_equal(_half(_full(c)), c)
        assert np.max(np.abs(c[:, grid.n_per_axis // 2])) > 0  # it has Nyquist content


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_padded_half_of_hermitian_full_band(grid):
    # half spectra with Nyquist content are padded as their completed full arrays are
    f = full_band(grid, 4)
    v = full_band(grid, 5, ncomp=grid.dim)
    for F, G in [(f, v), (v, v), (f, f)]:
        got = _full(_padded_half(F.coeffs, G.coeffs, grid))
        assert_close(got, padded_product_oracle(_full(F.coeffs), _full(G.coeffs), grid))


@pytest.mark.parametrize("name", INEQUALITY_NAMES)
def test_verify_inequality_builds_no_field(name, monkeypatch):
    grid = GridSpec(3, 8) if name == "l3_embedding" else GridSpec(2, 16)
    fields, completions = [], []
    init = SpectralField.__init__

    def counting_init(self, *args, **kwargs):
        fields.append(type(self))
        init(self, *args, **kwargs)

    def counting_full(half):
        completions.append(half.shape)
        return _full(half)

    monkeypatch.setattr(SpectralField, "__init__", counting_init)
    for module in (spectral, littlewood_paley):
        monkeypatch.setattr(module, "_full", counting_full, raising=False)
    report = verify_inequality(name, 8, 3, grid)
    assert report.samples + report.skipped == 8
    assert fields == []
    assert completions == []
