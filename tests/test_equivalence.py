"""Box fields, transforms, linear flow, stepper and sampler against full-spectrum forms.

A SpectralField holds a box of the rfftn half spectrum of a real field.  Each
oracle here is an earlier implementation on full coefficient arrays: it
lifts its input to the half spectrum (`lift`), completes it with `_full`
(`full`) and keeps its own arithmetic (complex fftn/ifftn, a
Hermitian projection after every forward transform, full-grid multiplier
tables, the nonlinear term as one collocation product per component plus
one for (div u) u, the exact linear flow and the ETD2 step with both
Helmholtz projections of each datum per branch, RK4 on the full
right-hand side, the only RK4 of the project, and the
Littlewood-Paley sampler, ratio generators and C3 loop with full-spectrum
norms and the complex padded product).  The general form of the nonlinear
term is the oracle of the rotational form every model's forcing takes on
the dealias box; without dealiasing, where the forms alias differently, a
full-spectrum rotational form is.  Full-band fields (kmax = n) carry
Nyquist content, where a full-grid derivative along any axis but the last
is not Hermitian, and neither is a full-grid Helmholtz projection; the
package's odd multipliers are zero at the Nyquist index, so every operator
returns a real field.
"""

import tracemalloc

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

from test_spectral import PARITY_GRIDS, PARITY_IDS

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


def lift(F):
    """F's coefficients on the whole half spectrum, extent n/2, whatever box F holds."""
    return spectral._resize(F.coeffs, F.grid, F.grid.n_per_axis // 2)


def full(F):
    """The full Hermitian coefficient array of the real field F stands for."""
    return _full(lift(F))


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


def full_dealias_mask(grid):
    cut = np.floor(grid.dealias_fraction * (grid.n_per_axis // 2))
    mask = np.ones(grid.shape, dtype=bool)
    for j in full_index_vectors(grid):
        mask &= np.abs(j) <= cut
    return mask


def full_dealias(c, grid):
    return c * full_dealias_mask(grid)


def dealias_mask(grid):
    """The dealias box as a mask on the half spectrum."""
    return full_dealias_mask(grid)[..., : grid.n_per_axis // 2 + 1]


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


def rotational_oracle(c, grid):
    """u x w - grad(|u|^2/2), w = curl u: one collocation product per term, on full arrays."""
    dim = grid.dim
    v = samples_oracle(c, grid)
    curl = [derivative_oracle(c[k], grid, j) - derivative_oracle(c[j], grid, k) for j, k in solvers._CURL[dim]]
    w = samples_oracle(np.stack(curl), grid)
    if dim == 2:
        cross = [v[1] * w[0], -v[0] * w[0]]
    else:
        cross = [v[j] * w[k] - v[k] * w[j] for j, k in solvers._CURL[3]]
    square = full_dealias(to_spectral_oracle(grid, np.sum(v * v, axis=0, keepdims=True)), grid)[0]
    grad = np.stack([derivative_oracle(square, grid, i) for i in range(dim)])
    return full_dealias(to_spectral_oracle(grid, np.stack(cross)), grid) - 0.5 * grad


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


def bump_oracle(spec, grid):
    """The earlier bump: full half-spectrum fields, dealiased last, scaled to peak magnitude spec.amplitude."""
    sigma = spec.sigma if spec.sigma is not None else grid.domain_length / 40.0
    grad_phi = gradient(to_spectral(gaussian_bump(grid, sigma, spec.center)).remove_mean())
    gx, gy = grad_phi.coeffs[:2]
    rot = [-gy, gx] if grid.dim == 2 else [gy, -gx, np.zeros_like(gx)]
    sol = SpectralField(grid, np.stack(rot))
    u0 = dealias({"gradient": grad_phi, "solenoidal": sol, "mixed": grad_phi + sol}[spec.kind])
    phys = to_physical(u0)
    scale = spec.amplitude / linf_norm(phys)
    return u0 * scale, PhysicalField(grid, phys.values * scale)


def front_oracle(params, grid, spec, damping, n_samples):
    """The earlier front: bump_oracle, evolve_linear_oracle and one full inverse per sample."""
    center = spec.center or (grid.domain_length / 2.0,) * grid.dim
    u0, phys0 = bump_oracle(spec, grid)
    c0 = full(u0)
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


def inverse_passes(grid):
    """The numpy passes of one inverse transform, in irfftn's order."""
    return ["ifft"] * (grid.dim - 1) + ["irfft"]


def forward_passes(grid):
    """The numpy passes of one forward transform, in rfftn's order."""
    return ["rfft"] + ["fft"] * (grid.dim - 1)


def count_projections(monkeypatch):
    """The Helmholtz splits solvers and experiments make from now on.

    A `_helmholtz_parts` call records the box shape it splits, a
    helmholtz_project call its which-argument.
    """
    calls = []
    helmholtz_parts = solvers._helmholtz_parts

    def splitting(x, grid, out=None):
        calls.append(x.shape)
        return helmholtz_parts(x, grid, out)

    def projecting(F, which):
        calls.append(which)
        return helmholtz_project(F, which)

    for module in (solvers, experiments):
        monkeypatch.setattr(module, "_helmholtz_parts", splitting)
        monkeypatch.setattr(module, "helmholtz_project", projecting)
    return calls


def stands_for_real_field(F):
    """The coefficients are those of the real field they stand for, to_spectral(to_physical(F))."""
    assert_close(to_spectral(to_physical(F)).coeffs, lift(F))


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestTransforms:
    def test_to_physical_arbitrary_complex(self, grid):
        # the planes j = 0 and j = n/2 of an arbitrary array are not Hermitian;
        # they are read through their Hermitian part, as the completion holds it
        rng = np.random.default_rng(1)
        shape = (grid.dim, *grid.spectral_shape)
        F = SpectralField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        assert_close(to_physical(F).values, samples_oracle(full(F), grid))

    def test_to_physical_full_band_derivatives(self, grid):
        # the full-grid derivative is not Hermitian at the Nyquist index; the
        # real field it stands for is that of the package's derivative
        F = full_band(grid, 2)
        c = full(F)
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
            expect = padded_product_oracle(full(F), full(G), grid)
            assert_close(full(padded_product(F, G)), expect)


ONE_AXIS_PASSES = {"fft", "ifft", "rfft", "irfft"}


def test_every_transform_is_one_axis_passes(monkeypatch):
    # transforms, products, the front experiment's samples, the sampler and
    # the stepper all run numpy's one-axis passes, never an n-dimensional call
    grid = GridSpec(2, 16)
    params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=0.05, alpha=0.1)
    u = dealias(random_band_limited(grid, np.random.default_rng(45), ncomp=2))
    calls = count_transforms(monkeypatch)
    entries = [
        lambda: to_physical(u),
        lambda: nonlinear_term(u),
        lambda: finite_speed_experiment(params, GridSpec(2, 128), BumpSpec("mixed"), n_samples=2),
        lambda: verify_inequality("div_lp", 1, 3, grid),
        lambda: solvers.step(SolverState(u, u, 0.0), params, StepperConfig(dt=0.01, t_end=0.01)),
    ]
    for entry in entries:
        del calls[:]
        entry()
        assert calls and set(calls) <= ONE_AXIS_PASSES, calls


def test_whole_inverse_into_out_allocates_nothing():
    # numpy's irfftn allocates a complex intermediate per leading axis even
    # with out= (296,688 B traced for this stack); the passes run in work
    rng = np.random.default_rng(46)
    shape = (4, 16, 16, 9)
    half = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    out = np.empty((4, 16, 16, 16))
    work = np.empty(spectral._pass_scratch(4, 3, 16, 8, True), dtype=np.complex128)
    spectral._irfft(half, 16, out=out, work=work)  # builds the cached pass shapes
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        spectral._irfft(half, 16, out=out, work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096, peak
    assert np.array_equal(out, np.fft.irfftn(half, s=(16,) * 3, axes=(1, 2, 3), norm="forward"))


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
        assert_close(full(nonlinear_term(u)), nonlinear_oracle(full(u), grid))

    def test_full_band_hermitian(self, grid):
        # like a step, the term reads only the dealias box of its input
        u = full_band(grid, 7, ncomp=grid.dim)
        assert_close(full(nonlinear_term(u)), nonlinear_oracle(full(dealias(u)), grid))

    def test_projected_full_band_no_dealiasing(self, grid):
        # with dealias_fraction = 1 a Helmholtz-projected full-band field keeps
        # its Nyquist content, and stays a real field
        g = GridSpec(grid.dim, grid.n_per_axis, dealias_fraction=1.0)
        u = helmholtz_project(full_band(g, 9, ncomp=g.dim), "P")
        assert np.max(np.abs(full(u)[:, ~nyquist_free(g)])) > 0
        stands_for_real_field(u)
        got = nonlinear_term(u)
        stands_for_real_field(got)
        # the forms alias differently here, so the oracle is the rotational
        # form; its Nyquist derivatives leave a non-Hermitian part that no
        # real field has, so compare the real fields
        expect = samples_oracle(rotational_oracle(full(u), g), g)
        assert_close(to_physical(got).values, expect)

    def test_two_transforms_per_evaluation(self, grid, monkeypatch):
        # one inverse of (u, curl u) and one forward of the products, each one
        # numpy pass per axis
        u = dealias(random_band_limited(grid, np.random.default_rng(8), ncomp=grid.dim))
        calls = count_transforms(monkeypatch)
        nonlinear_term(u)
        assert calls == inverse_passes(grid) + forward_passes(grid), calls


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
        c0, c1 = full(u0), full(u1)
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
            assert_close(full(field)[:, modes], real[:, modes])
            stands_for_real_field(field)

    def test_dealiased_matches_oracle(self, grid, params, damping):
        rng = np.random.default_rng(12)
        u0, u1 = (dealias(random_band_limited(grid, rng, ncomp=grid.dim)) for _ in range(2))
        got = evolve_linear(u0, u1, params, 0.3, damping=damping)
        c0, c1 = full(u0), full(u1)
        oracle = evolve_linear_oracle(c0, c1, params, grid, 0.3, damping)
        for field, expect in zip((got.u, got.u_t), oracle):
            assert_close(full(field), expect)


FRONT_GRIDS = {"": GridSpec(2, 128), "full-": GridSpec(2, 128, dealias_fraction=1.0), "3d-": GridSpec(3, 64)}
FRONT_CASES = [
    ("", "gradient", False),
    ("", "mixed", True),
    ("", "solenoidal", True),
    ("full-", "gradient", True),
    ("full-", "mixed", False),
    ("full-", "solenoidal", False),
    ("3d-", "gradient", False),
    ("3d-", "mixed", True),
    ("3d-", "solenoidal", True),
]


@pytest.mark.parametrize(
    "grid_id, kind, damping", FRONT_CASES, ids=[f"{g}{kind}-{damping}" for g, kind, damping in FRONT_CASES]
)
def test_front_report_matches_oracle(grid_id, kind, damping):
    # the box-resident bump and flow against the full-spectrum bump, flow and
    # inverses, at the dealias box of 2/3, at the whole half spectrum and in 3D
    grid = FRONT_GRIDS[grid_id]
    params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-1, alpha=1e-1)
    if grid.dim == 2:
        spec, n_samples = BumpSpec(kind, center=(2.0, 3.5)), 4
    else:
        spec, n_samples = BumpSpec(kind, sigma=grid.domain_length / 20.0, amplitude=2.5), 2
    got = finite_speed_experiment(params, grid, spec, damping=damping, n_samples=n_samples)
    assert got == front_oracle(params, grid, spec, damping, n_samples=n_samples)


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
        # the box path splits its bump once with _helmholtz_parts, never with helmholtz_project
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-1, alpha=1e-1)
        calls = count_projections(monkeypatch)
        grid = GridSpec(2, 128)
        finite_speed_experiment(params, grid, BumpSpec("mixed"), n_samples=n_samples)
        assert calls == [(2, *grid.box_shape)], calls

    def test_front_experiment_one_inverse_on_half_tables_per_sample(self, monkeypatch):
        # one pruned inverse per sample, and every table on the dealias box
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
            counts.append(calls.count("irfft"))  # one per inverse transform
        assert counts[1] - counts[0] == 4, counts
        assert shapes and all(shape == grid.box_shape for shape in shapes), shapes

    def test_front_experiment_transforms_bump_once(self, monkeypatch):
        # one forward transform of the bump, one inverse of it for its peak,
        # threshold and initial radius, and one inverse per sample time
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-1, alpha=1e-1)
        grid = GridSpec(2, 128)
        calls = count_transforms(monkeypatch)
        finite_speed_experiment(params, grid, BumpSpec("mixed"), n_samples=4)
        assert sorted(calls) == sorted(inverse_passes(grid) * 6 + forward_passes(grid)), calls

    def test_front_experiment_traced_peak(self):
        # box tables, box parts and one set of sample buffers: half-spectrum
        # tables and a fresh inverse per sample traced about 10 MB here
        params = ModelParams(Model.HNS_EPS_ALPHA, epsilon=1e-2, alpha=1e-2)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            finite_speed_experiment(params, GridSpec(2, 256), BumpSpec("gradient"), damping=False, n_samples=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.5e6, peak


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


def step_oracle(u, v, params, dt, grid, scheme="etd2", nonlinearity=True):
    """One ETD2 or RK4 step on full coefficient arrays, splitting both Helmholtz branches each ETD2 stage.

    RK4 integrates the full right-hand side, the penalty's grad(div u)
    included, and needs dt inside its stability region.
    """
    if scheme == "rk4":

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


@pytest.mark.parametrize("scheme", ["etd2"])  # the oracle's scheme: the stepper's own
@pytest.mark.parametrize("params", STEP_PARAMS, ids=STEP_IDS)
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestStepper:
    def test_five_steps_match_oracle(self, grid, params, scheme):
        u0, u1 = stepper_data(grid, params, 14)
        cfg = StepperConfig(dt=0.01, t_end=0.05)
        expect = (full(u0), None if u1 is None else full(u1))
        got = SolverState(u0, u1, 0.0)
        for _ in range(5):
            expect = step_oracle(*expect, params, cfg.dt, grid, scheme)
            got = solvers.step(got, params, cfg)
        res = solvers.run_simulation(u0, u1, params, cfg)
        for state in (got, res.final):
            assert state.time == pytest.approx(0.05)
            assert_close(full(state.u), expect[0])
            if params.is_hyperbolic:
                assert_close(full(state.u_t), expect[1])
            else:
                assert state.u_t is None


@pytest.mark.parametrize("params", STEP_PARAMS, ids=STEP_IDS)
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestStepperCounts:
    def test_four_transforms_per_etd2_step(self, grid, params, monkeypatch):
        # two forcings of one inverse and one forward box transform each; a
        # box transform is one numpy pass per axis, in irfftn's and rfftn's order
        u0, u1 = stepper_data(grid, params, 15)
        cfg = StepperConfig(dt=0.01, t_end=0.03)
        state = SolverState(u0, u1, 0.0)
        calls = count_transforms(monkeypatch)
        for _ in range(3):
            state = solvers.step(state, params, cfg)
        if grid.dim == 2:
            passes = ["ifft", "irfft", "rfft", "fft"]
        else:
            passes = ["ifft", "ifft", "irfft", "rfft", "fft", "fft"]
        assert calls == passes * 6, calls

    def test_no_completion_between_snapshots(self, grid, params, monkeypatch):
        u0, u1 = stepper_data(grid, params, 16)
        cfg = StepperConfig(dt=0.01, t_end=0.09, snapshot_every=3)
        calls = []
        full = spectral._full

        def counting(half):
            calls.append(half.shape)
            return full(half)

        monkeypatch.setattr(spectral, "_full", counting)
        # the states are dealias boxes: neither the loop nor a probe that
        # reads them completes one
        quiet = solvers.run_simulation(u0, u1, params, cfg, probes={"n": lambda st: len(calls)})
        assert quiet.probes["n"] == [0, 0, 0, 0]
        reads = {"n": lambda st: len(calls), "l2": lambda st: sobolev_norm(st.u, 0.0)}
        loud = solvers.run_simulation(u0, u1, params, cfg, probes=reads)
        assert loud.probes["n"] == [0, 0, 0, 0]
        assert calls == []


@pytest.mark.parametrize("params", STEP_PARAMS, ids=STEP_IDS)
def test_state_exactly_hermitian_without_dealiasing(params):
    # with dealias_fraction = 1 a full-grid Leray projection leaves Nyquist
    # content that is not Hermitian; the stepper keeps states that stand for
    # real fields
    grid = GridSpec(2, 16, dealias_fraction=1.0)
    u0 = full_band(grid, 17, ncomp=2)
    u1 = full_band(grid, 18, ncomp=2) if params.is_hyperbolic else None
    cfg = StepperConfig(dt=1e-3, t_end=5e-3)
    res = solvers.run_simulation(u0, u1, params, cfg, keep_states=True)
    assert len(res.states) == 6
    for state in (*res.states, res.final):
        stands_for_real_field(state.u)
        if state.u_t is not None:
            stands_for_real_field(state.u_t)


def record_batches(monkeypatch):
    """(name, input shape) of every one-axis and rfftn/irfftn transform call from now on."""
    calls = []

    def recording(fn):
        def wrapper(a, *args, **kwargs):
            calls.append((fn.__name__, a.shape))
            return fn(a, *args, **kwargs)

        return wrapper

    for name in ("fft", "ifft", "rfft", "irfft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name)))
    return calls


def coefficients(state):
    return [F.coeffs for F in (state.u, state.u_t) if F is not None]


@pytest.mark.parametrize("params", STEP_PARAMS, ids=STEP_IDS)
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_forcing_matches_general_form(grid, params):
    # every model's forcing, the rotational form, agrees with the general
    # form, Leray-projected for the constrained models, mode by mode on the
    # dealias box, where the 2/3 rule makes every quadratic product exact
    u0, u1 = stepper_data(grid, params, 19)
    state = SolverState(u0, u1, 0.0)
    cfg = StepperConfig(dt=0.01, t_end=0.03)
    ws = solvers._workspace(grid)
    for _ in range(4):
        f = SpectralField(grid, solvers._forcing(state.u.coeffs, ws, params, True))
        assert_close(full(f), forcing_oracle(full(state.u), params, grid, True))
        state = solvers.step(state, params, cfg)


FORM_CASES = [(params, fraction) for fraction in (2.0 / 3.0, 1.0) for params in STEP_PARAMS]
FORM_IDS = ["ns", "eps", "eps_alpha", "ns-nodealias", "eps-nodealias", "eps_alpha-nodealias"]


BOX_SHAPES = {
    (2, 2.0 / 3.0): (11, 6),
    (2, 1.0): (16, 9),
    (3, 2.0 / 3.0): (5, 5, 3),
    (3, 1.0): (8, 8, 5),
}


@pytest.mark.parametrize("params, fraction", FORM_CASES, ids=FORM_IDS)
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_forcing_transform_batches(grid, params, fraction, monkeypatch):
    # every model transforms (u, curl u) inverse and the products u x curl u
    # forward, and the penalized model |u|^2 with them: the constrained
    # models' projection removes its gradient.  At every dealias fraction the
    # inverse pads one leading axis at a time to n and transforms the lines
    # that meet the box, the k = cut + 1 columns, then irfft reads all
    # h = n/2 + 1 columns, zero past the box; the forward transforms all
    # samples along the last axis, then the box columns along the leading
    # axes, last to first, keeping the box rows of each axis it has done.
    # With fraction 1 the box is everything.
    g = GridSpec(grid.dim, grid.n_per_axis, dealias_fraction=fraction)
    d, n, h = g.dim, g.n_per_axis, g.spectral_shape[-1]
    assert g.box_shape == BOX_SHAPES[d, fraction]
    m, k = g.box_shape[0], g.box_shape[-1]
    u0, u1 = stepper_data(g, params, 22)
    state = SolverState(u0, u1, 0.0)
    cfg = StepperConfig(dt=0.01, t_end=0.02)
    calls = record_batches(monkeypatch)
    for _ in range(2):
        state = solvers.step(state, params, cfg)
    a = d * (d + 1) // 2
    b = d + 1 if params.model is Model.HNS_EPS_ALPHA else d
    if d == 2:
        inverse = [("ifft", (a, n, k)), ("irfft", (a, n, h))]
        forward = [("rfft", (b, n, n)), ("fft", (b, n, k))]
    else:
        inverse = [("ifft", (a, n, m, k)), ("ifft", (a, n, n, k)), ("irfft", (a, n, n, h))]
        forward = [("rfft", (b, n, n, n)), ("fft", (b, n, n, k)), ("fft", (b, n, m, k))]
    assert calls == (inverse + forward) * 4, calls


# ---------------------------------------------------------------------------
# the workspace ETD2 step against the allocating one
# ---------------------------------------------------------------------------


def irrotational_oracle(x, grid):
    """The allocating Q projection k (k.x)/|k|^2 on the half spectrum."""
    half = grid.n_per_axis // 2
    ks = spectral._odd_wavenumbers(grid, half)
    kdot = ks[0] * x[0]
    for i in range(1, grid.dim):
        kdot += ks[i] * x[i]
    kdot *= spectral._inv_k_squared(grid, half)
    return np.stack([k * kdot for k in ks])


def rotational_half_oracle(u, grid, gradient=True):
    """The allocating half-spectrum rotational form u x w - grad(|u|^2/2), w = curl u, in the stepper's operation order.

    Without gradient it is u x w alone, as the constrained models take it.
    """
    dim = grid.dim
    ik = spectral._derivatives(grid, grid.n_per_axis // 2)
    curl = [ik[j] * u[k] - ik[k] * u[j] for j, k in solvers._CURL[dim]]
    phys = np.fft.irfftn(np.concatenate([u, curl]), s=grid.shape, axes=axes(grid), norm="forward")
    v, w = phys[:dim], phys[dim:]
    if dim == 2:
        cross = [v[1] * w[0], v[0] * w[0]]  # (u x w)_1 negated
    else:
        cross = [v[j] * w[k] - v[k] * w[j] for j, k in solvers._CURL[3]]
    if not gradient:
        out = np.fft.rfftn(np.stack(cross), axes=axes(grid), norm="forward") * dealias_mask(grid)
        if dim == 2:
            out[1] = -out[1]
        return out
    square = v[0] * v[0]
    for i in range(1, dim):
        square = square + v[i] * v[i]
    prods = np.fft.rfftn(np.stack([*cross, square]), axes=axes(grid), norm="forward")
    out = np.stack([(-0.5 * ik[i]) * prods[dim] for i in range(dim)])
    if dim == 2:
        out[0] += prods[0]
        out[1] -= prods[1]
    else:
        out += prods[:3]
    out *= dealias_mask(grid)
    return out


# (pair, output) of A, B, A', B', J0u, J0v, Ku, Kv in an `_etd2_branch` table
BRANCH_ENTRIES = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1))


def unbox_tables(tables, grid):
    """Dealias-box tables scattered into zeroed half grids, the P table object kept shared.

    A hyperbolic branch comes back as the flat tuple (A, B, A', B', J0u, J0v, Ku, Kv).
    """
    half = grid.n_per_axis // 2
    if len(tables) == 3:  # NS: (E, J0, K)
        return tuple(spectral._resize(t, grid, half) for t in tables)
    P, Q = (
        tuple(spectral._resize(branch[r][o, 0], grid, half) for r, o in BRANCH_ENTRIES)
        for branch in tables
    )
    return P, (P if tables[1] is tables[0] else Q)


def allocating_step_oracle(u, v, params, dt, grid):
    """The ETD2 step with a fresh array for every intermediate, in the stepper's operation order."""
    # the stepper's tables, on the dealias box: outside it the data are zero
    tables = solvers._etd2_tables(params.model, params.epsilon, params.alpha, grid, dt)
    tables = unbox_tables(tables, grid)
    mean = (slice(None), *(0,) * grid.dim)
    constrained = params.model in (Model.NS, Model.HNS_EPS)

    def forcing(x):
        f = rotational_half_oracle(x, grid, gradient=not constrained)
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
        # the oracle steps half spectra; the stepper's states are its boxes, to the bit
        g = GridSpec(grid.dim, grid.n_per_axis, dealias_fraction=fraction)
        u0, u1 = workspace_data(g, params, 23)
        cfg = StepperConfig(dt=0.002, t_end=0.01)
        expect = (lift(u0), None if u1 is None else lift(u1))
        state = SolverState(u0, u1, 0.0)
        for _ in range(5):
            expect = allocating_step_oracle(*expect, params, cfg.dt, g)
            state = solvers.step(state, params, cfg)
            for got, want in zip(coefficients(state), expect):
                assert got.shape == (g.dim, *g.box_shape)
                assert np.array_equal(got, spectral._resize(want, g, g.dealias_cut))

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


def step_loop_oracle(u0, u1, params, cfg):
    """(kept states, final state, steps, blew up) of `run_simulation` as a loop of public `step` calls."""
    u0 = helmholtz_project(dealias(u0), "P") if params.model is not Model.HNS_EPS_ALPHA else dealias(u0)
    if params.model is Model.NS:
        u1 = None
    elif params.model is Model.HNS_EPS:
        u1 = helmholtz_project(dealias(u1), "P")
    else:
        u1 = dealias(u1)
    state = SolverState(u0, u1, 0.0)
    initial_max = float(np.max(np.abs(u0.coeffs)))
    n_steps = int(round(cfg.t_end / cfg.dt))
    kept = [state]
    for i in range(n_steps):
        state = solvers.step(state, params, cfg)
        if solvers._check_blowup(state.u.coeffs, initial_max):
            return kept, state, i + 1, True
        if (i + 1) % cfg.snapshot_every == 0 or i + 1 == n_steps:
            kept.append(state)
    return kept, state, n_steps, False


def assert_states_equal(got, expect):
    assert got.time == expect.time
    assert len(coefficients(got)) == len(coefficients(expect))
    for a, b in zip(coefficients(got), coefficients(expect)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("params", STEP_PARAMS, ids=STEP_IDS)
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_box_resident_run_equals_step_loop(grid, params, every):
    # the run keeps its state on the dealias box between snapshots; every
    # kept state and the final one are those of the public step, to the bit
    rng = np.random.default_rng(25)
    u0, u1 = (random_band_limited(grid, rng, ncomp=grid.dim) for _ in "uv")
    cfg = StepperConfig(dt=0.002, t_end=0.014, snapshot_every=every)
    res = solvers.run_simulation(u0, u1, params, cfg, keep_states=True)
    kept, final, steps, blew_up = step_loop_oracle(u0, u1, params, cfg)
    assert not blew_up and res.steps == steps == 7
    assert len(res.states) == len(kept) == (8 if every == 1 else 4)
    assert res.times == [st.time for st in kept]
    for got, expect in zip(res.states, kept):
        assert_states_equal(got, expect)
    assert_states_equal(res.final, final)
    assert res.final is res.states[-1]


@pytest.mark.parametrize("params", STEP_PARAMS, ids=STEP_IDS)
def test_probe_stepping_on_the_grid_leaves_the_run_alone(params):
    # the run keeps its box state in the grid's workspace, where `step` and
    # a nested run put theirs; it resumes from each recorded state
    grid = GRIDS[0]
    u0, u1 = stepper_data(grid, params, 26)
    other = SolverState(*stepper_data(grid, params, 27), 0.0)
    cfg = StepperConfig(dt=0.002, t_end=0.012, snapshot_every=2)

    def meddling(st):
        solvers.step(other, params, cfg)
        solvers.run_simulation(other.u, other.u_t, params, cfg)
        return 0.0

    plain = solvers.run_simulation(u0, u1, params, cfg, keep_states=True)
    meddled = solvers.run_simulation(u0, u1, params, cfg, probes={"m": meddling}, keep_states=True)
    assert len(meddled.states) == len(plain.states) == 4
    for got, expect in zip(meddled.states, plain.states):
        assert_states_equal(got, expect)


@pytest.mark.parametrize("params", STEP_PARAMS, ids=STEP_IDS)
def test_box_resident_blowup_between_snapshots(params):
    # huge data and a coarse dt: the step that blows up is not a snapshot,
    # and the partial result's final state is the one the step loop reaches
    grid = GridSpec(2, 16)
    rng = np.random.default_rng(1)
    u0 = random_band_limited(grid, rng, ncomp=2, amplitude=1000.0, divergence_free=True)
    u1 = random_band_limited(grid, rng, ncomp=2, amplitude=1000.0)
    cfg = StepperConfig(dt=0.2, t_end=20.0, snapshot_every=4)
    kept, final, steps, blew_up = step_loop_oracle(u0, u1, params, cfg)
    assert blew_up and steps % cfg.snapshot_every != 0
    with pytest.raises(solvers.BlowUpError) as exc_info:
        solvers.run_simulation(u0, u1, params, cfg, keep_states=True)
    partial = exc_info.value.partial
    assert exc_info.value.time == final.time
    assert partial.steps == steps
    assert len(partial.states) == len(kept)
    for got, expect in zip(partial.states, kept):
        assert_states_equal(got, expect)
    assert_states_equal(partial.final, final)


# ---------------------------------------------------------------------------
# the dealias box
# ---------------------------------------------------------------------------


def fraction_grid(grid, fraction):
    return GridSpec(grid.dim, grid.n_per_axis, dealias_fraction=fraction)


@pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0], ids=["dealias", "nodealias"])
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_box_transforms_equal_numpy(grid, fraction):
    # the box passes are numpy's own, so they agree to the bit, whatever the
    # scratch held before
    g = fraction_grid(grid, fraction)
    axes = tuple(range(1, g.dim + 1))
    rng = np.random.default_rng(40)
    n, cut = g.n_per_axis, g.dealias_cut
    for ncomp in (1, g.dim + 1, g.dim * (g.dim + 3) // 2):
        shape = (ncomp, *g.spectral_shape)
        half = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * dealias_mask(g)
        box = spectral._resize(half, g, cut)
        assert box.shape == (ncomp, *g.box_shape)
        assert np.array_equal(spectral._resize(box, g, n // 2), half)
        values = rng.normal(size=(ncomp, *g.shape))
        inverse = np.fft.irfftn(half, s=g.shape, axes=axes, norm="forward")
        forward = spectral._resize(np.fft.rfftn(values, axes=axes, norm="forward"), g, cut)
        scratch = [spectral._pass_scratch(ncomp, g.dim, n, cut, inv) for inv in (True, False)]
        nan_work = [np.full(size, np.nan + 0j) for size in scratch]
        for inverse_work, forward_work in [(None, None), nan_work]:
            assert np.array_equal(spectral._irfft(box, n, work=inverse_work), inverse)
            assert np.array_equal(spectral._rfft(values, cut, work=forward_work), forward)


@pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0], ids=["dealias", "nodealias"])
@pytest.mark.parametrize("params", STEP_PARAMS, ids=STEP_IDS)
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestBoxStep:
    def test_zero_outside_the_box(self, grid, params, fraction):
        g = fraction_grid(grid, fraction)
        u0, u1 = workspace_data(g, params, 41)
        cfg = StepperConfig(dt=0.002, t_end=0.006)
        outside = ~dealias_mask(g)
        state = SolverState(u0, u1, 0.0)
        for _ in range(3):
            state = solvers.step(state, params, cfg)
            for F in (state.u, state.u_t):
                if F is not None:
                    assert F.coeffs.shape == (g.dim, *g.box_shape)
                    assert not np.ascontiguousarray(lift(F)[:, outside]).view(np.uint64).any()  # +0.0 to the bit

    def test_content_outside_the_box_is_dropped(self, grid, params, fraction):
        # a step reads only the box, so a state steps exactly like its dealias
        g = fraction_grid(grid, fraction)
        u0, u1 = workspace_data(g, params, 42)
        outside = ~dealias_mask(g)

        def noisy(F, seed):
            return SpectralField(g, lift(F) + full_band(g, seed, ncomp=g.dim).coeffs * outside)

        state = SolverState(noisy(u0, 43), None if u1 is None else noisy(u1, 44), 0.0)
        clean = SolverState(dealias(state.u), None if u1 is None else dealias(state.u_t), 0.0)
        if fraction < 1:
            assert not np.array_equal(state.u.coeffs, lift(clean.u))
        cfg = StepperConfig(dt=0.002, t_end=0.002)
        got, want = (coefficients(solvers.step(st, params, cfg)) for st in (state, clean))
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


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


def random_half_oracle(grid, rng, ncomp, decay, divergence_free):
    """A sampler draw as the whole half spectrum, dealiased by its mask; `_random_half` at extent n/2."""
    m = full_index_magnitude(grid)
    band = (m >= 1) & (m <= grid.dealias_cut)
    envelope = np.zeros_like(m)
    envelope[band] = m[band] ** (-decay)
    shape = (ncomp, *grid.shape)
    raw = np.empty(shape, dtype=np.complex128)
    raw.real = rng.normal(size=shape)
    raw.imag = rng.normal(size=shape)
    half = _half(raw * envelope)
    half[(slice(None), *(0,) * grid.dim)] = 0.0
    if divergence_free:
        half -= spectral._irrotational(half, grid)
    half *= 1.0 / spectral._linf(half, grid)
    return half * dealias_mask(grid)


def sample_stream_half_oracle(grid, rng, trials, ncomp, divergence_free):
    """The sampler's stream as masked half spectra: dealiased Gaussians, two single modes, then draws."""
    n = grid.n_per_axis
    probes = []
    for frac in () if divergence_free else (8.0, 16.0, 32.0):
        values = gaussian_bump(grid, sigma=grid.domain_length / frac).values
        bump = np.fft.rfftn(values, axes=axes(grid), norm="forward")
        bump[(slice(None), *(0,) * grid.dim)] = 0.0
        probes.append(np.concatenate([bump * dealias_mask(grid)] * ncomp))
    for kidx in () if divergence_free else (1, 2):
        mode = np.zeros((ncomp, *grid.spectral_shape), dtype=np.complex128)
        rest = (0,) * (grid.dim - 1)
        mode[(0, kidx, *rest)] = 1.0 / 2j
        mode[(0, n - kidx, *rest)] = -1.0 / 2j
        probes.append(mode)
    for t in range(trials):
        if t < len(probes):
            yield probes[t]
        else:
            yield random_half_oracle(grid, rng, ncomp, rng.uniform(0.6, 3.0), divergence_free)


@pytest.mark.parametrize("divergence_free", [False, True], ids=["scalar", "div_free"])
@pytest.mark.parametrize("grid", PARITY_GRIDS, ids=PARITY_IDS)
def test_sample_stream_is_the_masked_half_spectrum_draw(grid, divergence_free):
    # every sample lives on the dealias box; lifted, it is the masked half-spectrum draw, to the bit
    ncomp = grid.dim if divergence_free else 1
    got = littlewood_paley._sample_stream(grid, np.random.default_rng(32), 8, ncomp, divergence_free)
    want = sample_stream_half_oracle(grid, np.random.default_rng(32), 8, ncomp, divergence_free)
    pairs = list(zip(got, want))
    assert len(pairs) == 8
    for box, half in pairs:
        assert box.shape == (ncomp, *grid.box_shape)
        assert np.array_equal(spectral._resize(box, grid, grid.n_per_axis // 2), half)


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
    assert_close(full(got), want)
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
        assert_close(got, padded_product_oracle(full(F), full(G), grid))


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
