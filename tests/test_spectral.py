"""Spectral-core contracts: transforms, multipliers, projections, dealiasing, extents, I/O."""

import operator

import numpy as np
import pytest

from hnslab.spectral import (
    GridSpec,
    InvalidFieldError,
    PhysicalField,
    SingularMultiplierError,
    SpectralField,
    _full,
    _resize,
    dealias,
    divergence,
    gradient,
    helmholtz_project,
    lambda_power,
    laplacian,
    linf_norm,
    lp_norm,
    padded_product,
    random_band_limited,
    read_snapshot,
    single_mode,
    sobolev_norm,
    to_physical,
    to_spectral,
    wavenumbers,
    write_snapshot,
)


def spectral_product(F, G):
    """Collocation (grid) product of two fields, dealiased with the 2/3 mask."""
    vals = to_physical(F).values * to_physical(G).values
    return dealias(to_spectral(PhysicalField(F.grid, vals)))


def lifted(F):
    """F on the whole half spectrum, extent n/2."""
    return SpectralField(F.grid, _resize(F.coeffs, F.grid, F.grid.n_per_axis // 2))


# the dealias box and the whole half spectrum, and a grid whose box is the half spectrum
PARITY_GRIDS = [
    GridSpec(2, 64),
    GridSpec(2, 64, dealias_fraction=1.0),
    GridSpec(3, 32),
    GridSpec(3, 32, dealias_fraction=1.0),
]
PARITY_IDS = ["2d64", "2d64-nodealias", "3d32", "3d32-nodealias"]


def assert_parity(got, want):
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(4, 32)
        with pytest.raises(ValueError):
            GridSpec(2, 24)  # not a power of two
        with pytest.raises(ValueError):
            GridSpec(2, 4)  # too small
        with pytest.raises(ValueError):
            GridSpec(2, 32, domain_length=-1.0)
        with pytest.raises(ValueError):
            GridSpec(2, 32, dealias_fraction=0.0)

    def test_wavenumber_convention(self):
        g = GridSpec(2, 16, domain_length=4.0)
        kx = np.ravel(wavenumbers(g)[0])
        # index j in [-n/2, n/2), wavenumber (2 pi / L) j
        assert kx[0] == 0.0
        assert np.isclose(kx[1], 2 * np.pi / 4.0)
        assert np.isclose(kx[8], -8 * 2 * np.pi / 4.0)


class TestTransforms:
    def test_constant_field(self, grid2d):
        f = PhysicalField(grid2d, 3.5 * np.ones((1, *grid2d.shape)))
        F = to_spectral(f)
        zero = (0,) * grid2d.dim
        assert np.isclose(F.coeffs[(0, *zero)], 3.5)
        off = np.abs(F.coeffs).sum() - abs(F.coeffs[(0, *zero)])
        assert off < 1e-12
        assert np.allclose(to_physical(F).values, 3.5)

    def test_single_mode_coefficients(self, grid2d):
        # sin(2 pi x / L) has two conjugate coefficients at +-k of size 1/2
        F = single_mode(grid2d, (1, 0), amplitude=1.0, phase="sin")
        assert np.isclose(F.coeffs[0, 1, 0], -0.5j)
        assert np.isclose(F.coeffs[0, -1, 0], 0.5j)
        x = grid2d.meshgrid()[0]
        assert np.max(np.abs(to_physical(F).values[0] - np.sin(x))) < 1e-13

    def test_round_trip_random(self, grid2d, rng):
        f = PhysicalField(grid2d, rng.normal(size=(2, *grid2d.shape)))
        back = to_physical(to_spectral(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_round_trip_3d(self, grid3d, rng):
        f = PhysicalField(grid3d, rng.normal(size=(3, *grid3d.shape)))
        back = to_physical(to_spectral(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_nonfinite_rejected(self, grid2d):
        vals = np.zeros((1, *grid2d.shape))
        vals[0, 0, 0] = np.nan
        with pytest.raises(InvalidFieldError):
            to_spectral(PhysicalField(grid2d, vals))

    def test_hermitian_symmetry(self, grid2d, rng):
        # the half spectrum stores modes k and -k together only on the planes
        # j = 0 and j = n/2 of the last axis; there they are conjugate
        F = to_spectral(PhysicalField(grid2d, rng.normal(size=(1, *grid2d.shape))))
        c = F.coeffs[0]
        assert c.shape == grid2d.spectral_shape
        planes = c[:, [0, -1]]
        rev = np.roll(np.flip(planes, axis=0), 1, axis=0)
        assert np.max(np.abs(planes - np.conj(rev))) < 1e-14 * np.max(np.abs(c))


class TestDerivatives:
    def test_div_grad_is_laplacian(self, grid2d, rng):
        # the odd multiplier i k is zero at each Nyquist index, so div grad is
        # the Laplacian off the Nyquist modes and -|k|^2 of that wavevector on them
        phi = to_spectral(PhysicalField(grid2d, rng.normal(size=(1, *grid2d.shape))))
        lhs = divergence(gradient(phi))
        rhs = laplacian(phi.remove_mean())
        scale = np.max(np.abs(rhs.coeffs))
        kx, ky = wavenumbers(grid2d)
        inner = (np.abs(kx) < grid2d.k_max) & (np.abs(ky) < grid2d.k_max)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)[:, inner]) <= 1e-13 * scale
        odd = [np.where(np.abs(k) < grid2d.k_max, k, 0.0) for k in (kx, ky)]
        odd_laplacian = -(odd[0] ** 2 + odd[1] ** 2) * phi.remove_mean().coeffs
        assert np.max(np.abs(lhs.coeffs - odd_laplacian)) <= 1e-13 * scale

    def test_curl_field_divergence_free(self, grid2d, rng):
        psi = to_spectral(PhysicalField(grid2d, rng.normal(size=(1, *grid2d.shape))))
        g = gradient(psi)
        curl = SpectralField(grid2d, np.stack([-g.coeffs[1], g.coeffs[0]]))
        assert np.max(np.abs(divergence(curl).coeffs)) < 1e-14

    def test_laplacian_single_mode_multiplier(self):
        # hand-evaluated multiplier: -|k|^2 with |k| = (2 pi / L) |j|
        g = GridSpec(2, 32, domain_length=3.0)
        F = single_mode(g, (2, 1), amplitude=1.0)
        expected = -((2 * np.pi / 3.0) ** 2) * (2**2 + 1**2)
        out = laplacian(F)
        nz = np.abs(F.coeffs) > 0
        assert np.allclose(out.coeffs[nz] / F.coeffs[nz], expected)


class TestHelmholtz:
    def test_gradient_is_pure_q(self, grid2d, rng):
        phi = to_spectral(PhysicalField(grid2d, rng.normal(size=(1, *grid2d.shape))))
        gphi = gradient(phi)
        q = helmholtz_project(gphi, "Q")
        p = helmholtz_project(gphi, "P")
        scale = np.max(np.abs(gphi.coeffs))
        assert np.max(np.abs(q.coeffs - gphi.coeffs)) <= 1e-13 * scale
        assert np.max(np.abs(p.coeffs)) <= 1e-13 * scale

    def test_projector_algebra(self, grid2d, rng):
        for _ in range(100):
            F = random_band_limited(grid2d, rng, ncomp=2)
            P = helmholtz_project(F, "P")
            Q = helmholtz_project(F, "Q")
            scale = sobolev_norm(F, 0.0)
            assert sobolev_norm(helmholtz_project(P, "P") - P, 0.0) <= 1e-12 * scale
            assert sobolev_norm(helmholtz_project(Q, "Q") - Q, 0.0) <= 1e-12 * scale
            assert sobolev_norm(helmholtz_project(P, "Q"), 0.0) <= 1e-12 * scale
            assert sobolev_norm(P + Q - F, 0.0) <= 1e-12 * scale
            assert sobolev_norm(divergence(P), 0.0) <= 1e-12 * scale
            # direct coefficient-sum orthogonality oracle
            inner = float(np.sum((np.conj(P.coeffs) * Q.coeffs).real))
            assert abs(inner) <= 1e-10 * scale**2

    def test_mean_mode_belongs_to_p(self, grid2d):
        coeffs = np.zeros((2, *grid2d.spectral_shape), dtype=complex)
        coeffs[0, 0, 0] = 1.0
        F = SpectralField(grid2d, coeffs)
        assert np.max(np.abs(helmholtz_project(F, "Q").coeffs)) == 0.0
        P = helmholtz_project(F, "P")
        assert np.isclose(P.coeffs[0, 0, 0], 1.0)


class TestLambdaAndNorms:
    def test_lambda_zero_is_identity_on_mean_zero(self, grid2d, rng):
        F = random_band_limited(grid2d, rng)
        out = lambda_power(F, 0.0)
        assert np.max(np.abs(out.coeffs - F.coeffs)) < 1e-15

    def test_lambda_squared_is_minus_laplacian(self, grid2d, rng):
        F = random_band_limited(grid2d, rng)
        lhs = lambda_power(lambda_power(F, 1.0), 1.0)
        rhs = -1.0 * laplacian(F)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-13 * np.max(np.abs(rhs.coeffs))

    def test_lambda_half_single_mode(self):
        g = GridSpec(2, 16, domain_length=5.0)
        F = single_mode(g, (1, 0))
        out = lambda_power(F, 0.5)
        expected = (2 * np.pi / 5.0) ** 0.5
        nz = np.abs(F.coeffs) > 0
        assert np.allclose(out.coeffs[nz] / F.coeffs[nz], expected)

    def test_lambda_negative_needs_mean_zero(self, grid2d):
        coeffs = np.zeros((1, *grid2d.spectral_shape), dtype=complex)
        coeffs[0, 0, 0] = 1.0
        coeffs[0, 1, 0] = coeffs[0, -1, 0] = 0.25
        F = SpectralField(grid2d, coeffs)
        with pytest.raises(SingularMultiplierError):
            lambda_power(F, -1.0)

    def test_lambda_semigroup(self, grid2d, rng):
        F = random_band_limited(grid2d, rng)
        a, b = 0.7, -0.3
        lhs = lambda_power(lambda_power(F, a), b)
        rhs = lambda_power(F, a + b)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12 * np.max(np.abs(rhs.coeffs))

    def test_zero_field_norm(self, grid2d):
        assert sobolev_norm(SpectralField.zeros(grid2d, 2), 1.0) == 0.0

    def test_parseval(self, grid2d, rng):
        f = PhysicalField(grid2d, rng.normal(size=(2, *grid2d.shape)))
        F = to_spectral(f)
        cell = grid2d.spacing**grid2d.dim
        l2_phys = np.sqrt(np.sum(f.values**2) * cell)
        assert abs(sobolev_norm(F, 0.0) - l2_phys) <= 1e-12 * l2_phys
        # inner product consistency
        g = PhysicalField(grid2d, rng.normal(size=(2, *grid2d.shape)))
        G = to_spectral(g)
        direct = np.sum(f.values * g.values) * cell
        full_f, full_g = _full(F.coeffs), _full(G.coeffs)
        plancherel = grid2d.domain_length**grid2d.dim * np.sum(np.conj(full_f) * full_g).real
        assert abs(plancherel - direct) <= 1e-12 * abs(direct)

    def test_single_mode_norm_closed_form(self):
        # |A sin(k.x)|_{H^s}^2 = L^d |k|^(2s) A^2/2
        g = GridSpec(2, 32, domain_length=2 * np.pi)
        A, s = 1.7, 0.75
        F = single_mode(g, (2, 2), amplitude=A)
        kmag = np.sqrt(8.0)
        expected = np.sqrt(g.domain_length**2 * kmag ** (2 * s) * A**2 / 2)
        assert np.isclose(sobolev_norm(F, s), expected, rtol=1e-13)


class TestDealias:
    def test_band_limited_unchanged(self, grid2d):
        F = single_mode(grid2d, (3, 2))
        out = dealias(F)
        assert out.coeffs.shape == (1, *grid2d.box_shape)
        assert np.max(np.abs((out - F).coeffs)) == 0.0

    def test_supercutoff_zeroed(self, grid2d):
        # cutoff index is floor(2/3 * 16) = 10
        F = single_mode(grid2d, (12, 0))
        assert np.max(np.abs(dealias(F).coeffs)) == 0.0

    def test_aliased_product_removed(self):
        # two modes inside the retained band whose grid product aliases;
        # compare against the exact padded-transform oracle
        g = GridSpec(2, 32)
        cut = int(np.floor(g.dealias_fraction * 16))  # 10
        a = single_mode(g, (cut, 0))
        b = single_mode(g, (cut - 1, 0))
        raw = to_spectral(
            PhysicalField(g, to_physical(a).values * to_physical(b).values)
        )
        exact = padded_product(a, b)
        # the raw collocation product carries an aliased image; dealias removes it
        assert np.max(np.abs(raw.coeffs - exact.coeffs)) > 1e-3
        assert np.max(np.abs(dealias(raw).coeffs - dealias(exact).coeffs)) < 1e-14

    def test_spectral_product_matches_padded_on_band(self, grid2d, rng):
        u = dealias(random_band_limited(grid2d, rng))
        v = dealias(random_band_limited(grid2d, rng))
        got = spectral_product(u, v)
        want = dealias(padded_product(u, v))
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-13


class TestExtents:
    @pytest.mark.parametrize(
        "shape",
        [(2, 85, 40), (2, 85, 44), (2, 127, 65), (2, 128, 66), (2, 43, 85), (2, 85, 0), (3, 85, 43), (2, 85, 43, 1)],
    )
    def test_shape_that_is_no_box_rejected(self, shape):
        with pytest.raises(InvalidFieldError):
            SpectralField(GridSpec(2, 128), np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize("shape", [(2, 85, 43), (2, 128, 65), (1, 1, 1), (85, 43)])
    def test_every_box_accepted(self, shape):
        F = SpectralField(GridSpec(2, 128), np.ones(shape, dtype=complex))
        assert F.cut == shape[-1] - 1 and F.coeffs.ndim == 3

    def test_constructors_return_their_boxes(self, grid2d, rng):
        # every band-limited field is born on the smallest box that holds it
        half = grid2d.n_per_axis // 2
        for kmax, cut in [(None, grid2d.dealias_cut), (4, 4), (half, half), (2 * half, half), (-1, 0)]:
            assert random_band_limited(grid2d, rng, kmax=kmax).cut == cut
        for index, cut in [((1, 0), 1), ((0, -3), 3), ((2, 5), 5), ((half, 1), half)]:
            assert single_mode(grid2d, index).cut == cut

    def test_mixed_extents_equal_half_spectrum_result(self, grid2d, rng):
        G = random_band_limited(grid2d, rng, ncomp=2)
        F = dealias(random_band_limited(grid2d, rng, ncomp=2))
        H = SpectralField(grid2d, _resize(G.coeffs, grid2d, 3))
        for a, b in [(F, G), (G, F), (F, H), (H, F)]:
            for op in (operator.add, operator.sub):
                got = op(a, b)
                assert got.cut == max(a.cut, b.cut)
                assert np.array_equal(lifted(got).coeffs, op(lifted(a).coeffs, lifted(b).coeffs))


@pytest.mark.parametrize("grid", PARITY_GRIDS, ids=PARITY_IDS)
def test_zeros_is_the_empty_box(grid, tmp_path):
    Z = SpectralField.zeros(grid, grid.dim)
    assert Z.cut == 0 and Z.coeffs.shape == (grid.dim, *(1,) * grid.dim)
    F = random_band_limited(grid, np.random.default_rng(52), ncomp=grid.dim)
    for got in (Z + F, F + Z):
        assert got.cut == F.cut and np.array_equal(got.coeffs, F.coeffs)
    # a snapshot of it is the snapshot of the zero half spectrum
    half = SpectralField(grid, np.zeros((grid.dim, *grid.spectral_shape), dtype=complex))
    write_snapshot(tmp_path / "box.hnsf", Z, 0.5)
    write_snapshot(tmp_path / "half.hnsf", half, 0.5)
    assert (tmp_path / "box.hnsf").read_bytes() == (tmp_path / "half.hnsf").read_bytes()


def test_building_a_field_keeps_the_callers_array_and_its_mean(tmp_path):
    # a field is its coefficients: no constructor writes to the array it is
    # given, and a mean far below the coefficients stays the mean it is
    from hnslab.solvers import nonlinear_term

    grid, mean = GridSpec(2, 16), 1e-14
    c = random_band_limited(grid, np.random.default_rng(53), ncomp=2).coeffs
    c[:, 0, 0] = mean
    kept = c.copy()
    F = SpectralField(grid, c)
    assert np.array_equal(c, kept) and np.array_equal(F.coeffs[:, 0, 0], [mean, mean])
    values = to_physical(F).values
    samples = values.copy()
    G = to_spectral(PhysicalField(grid, values))
    assert np.array_equal(values, samples)
    assert np.max(np.abs(G.coeffs[:, 0, 0] - mean)) <= 1e-15
    write_snapshot(tmp_path / "f.hnsf", F)
    H, _ = read_snapshot(tmp_path / "f.hnsf")
    assert np.max(np.abs(H.coeffs[:, 0, 0] - mean)) <= 1e-15
    one = SpectralField(grid, np.ones((1, 1, 1)))  # the constant 1 on the empty box
    P = padded_product(F, one)
    assert np.max(np.abs(P.coeffs[:, 0, 0] - mean)) <= 1e-15
    nonlinear_term(F)
    assert np.array_equal(c, kept) and np.array_equal(one.coeffs, np.ones((1, 1, 1)))


@pytest.mark.parametrize("grid", PARITY_GRIDS, ids=PARITY_IDS)
def test_operators_on_the_box_equal_half_spectrum(grid):
    # the same field on its dealias box and on the half spectrum: every norm
    # and operator agrees, each on its own extent
    box = dealias(random_band_limited(grid, np.random.default_rng(50), ncomp=grid.dim, kmax=grid.n_per_axis))
    half = lifted(box)
    assert box.coeffs.shape == (grid.dim, *grid.box_shape) and half.cut == grid.n_per_axis // 2
    for sigma in (-0.5, 0.0, 0.5, 1.5):
        want = sobolev_norm(half, sigma)
        assert abs(sobolev_norm(box, sigma) - want) <= 1e-13 * want
    ops = [
        divergence,
        lambda F: helmholtz_project(F, "P"),
        lambda F: helmholtz_project(F, "Q"),
        laplacian,
        lambda F: lambda_power(F, 0.5),
        lambda F: lambda_power(F, -1.0),
    ]
    for op in ops:
        got = op(box)
        assert got.cut == box.cut
        assert_parity(lifted(got).coeffs, op(half).coeffs)
    assert_parity(to_physical(box).values, to_physical(half).values)
    # a padded product pads each factor from its own box, to the bit
    scalar = dealias(random_band_limited(grid, np.random.default_rng(53), kmax=grid.n_per_axis))
    for a, b in [(box, box), (scalar, box), (single_mode(grid, (1, 2)), scalar)]:
        got = padded_product(a, b)
        assert np.array_equal(got.coeffs, padded_product(lifted(a), lifted(b)).coeffs)


class TestLpNorms:
    def test_linf_of_mode(self, grid2d):
        F = single_mode(grid2d, (1, 0), amplitude=2.0)
        assert np.isclose(linf_norm(F), 2.0, rtol=1e-12)

    def test_l4_of_sine_closed_form(self):
        # integral of sin^4 over a period is 3L/8
        g = GridSpec(2, 64)
        F = single_mode(g, (1, 0), amplitude=1.0)
        expected = (g.domain_length * (3.0 / 8.0) * g.domain_length) ** 0.25
        assert np.isclose(lp_norm(F, 4), expected, rtol=1e-12)


class TestSnapshotIO:
    def test_spectral_round_trip(self, grid2d, rng, tmp_path):
        F = random_band_limited(grid2d, rng, ncomp=2)
        p = tmp_path / "f.hnsf"
        write_snapshot(p, F, time=1.25)
        G, t = read_snapshot(p)
        assert t == 1.25
        assert isinstance(G, SpectralField)
        assert np.array_equal(G.coeffs, lifted(F).coeffs)

    def test_version1_full_payload_loads_and_rewrites(self, grid2d, rng, tmp_path):
        # a version-1 spectral snapshot holds the full Hermitian coefficient
        # array; written here by hand, it loads to its half spectrum and
        # write_snapshot gives the same bytes back
        import struct

        values = rng.normal(size=(2, *grid2d.shape))
        full = np.fft.fftn(values, axes=(1, 2), norm="forward")
        mirror = np.roll(np.flip(full, axis=(1, 2)), 1, axis=(1, 2))
        full = 0.5 * (full + np.conj(mirror))  # exactly Hermitian
        header = struct.pack("<4sIIIddB", b"HNSF", 1, 2, 32, grid2d.domain_length, 0.75, 1)
        old = tmp_path / "old.hnsf"
        old.write_bytes(header + full.astype("<c16").tobytes())
        F, t = read_snapshot(old)
        assert t == 0.75
        assert np.array_equal(F.coeffs, full[..., : grid2d.n_per_axis // 2 + 1])
        assert np.max(np.abs(to_physical(F).values - values)) <= 1e-12 * np.max(np.abs(values))
        new = tmp_path / "new.hnsf"
        write_snapshot(new, F, time=0.75)
        assert new.read_bytes() == old.read_bytes()

    def test_box_writes_the_bytes_of_its_half_spectrum(self, grid2d, rng, tmp_path):
        box = dealias(random_band_limited(grid2d, rng, ncomp=2))
        write_snapshot(tmp_path / "box.hnsf", box, 0.5)
        write_snapshot(tmp_path / "half.hnsf", lifted(box), 0.5)
        assert (tmp_path / "box.hnsf").read_bytes() == (tmp_path / "half.hnsf").read_bytes()
        back, t = read_snapshot(tmp_path / "box.hnsf")
        assert t == 0.5 and back.cut == grid2d.n_per_axis // 2
        assert sobolev_norm(back - box, 0.0) <= 1e-14 * sobolev_norm(box, 0.0)

    def test_physical_round_trip(self, grid2d, rng, tmp_path):
        f = PhysicalField(grid2d, rng.normal(size=(2, *grid2d.shape)))
        p = tmp_path / "f.hnsf"
        write_snapshot(p, f, time=0.0)
        g, _ = read_snapshot(p)
        assert isinstance(g, PhysicalField)
        assert np.array_equal(g.values, f.values)

    def test_header_layout(self, grid2d, tmp_path):
        F = SpectralField.zeros(grid2d, 2)
        p = tmp_path / "f.hnsf"
        write_snapshot(p, F, time=2.0)
        raw = p.read_bytes()
        assert raw[:4] == b"HNSF"
        import struct

        magic, version, dim, n, L, t, spec_flag = struct.unpack("<4sIIIddB", raw[:33])
        assert (version, dim, n, spec_flag) == (1, 2, 32, 1)
        assert (L, t) == (grid2d.domain_length, 2.0)

    def test_short_header_rejected(self, tmp_path):
        p = tmp_path / "f.hnsf"
        p.write_bytes(b"HNSF")
        with pytest.raises(InvalidFieldError, match="header"):
            read_snapshot(p)

    @pytest.mark.parametrize("spectral", [True, False])
    @pytest.mark.parametrize("defect", ["cut", "extra"])
    def test_payload_not_whole_components_rejected(self, grid2d, rng, tmp_path, spectral, defect):
        # a 2D vector snapshot cut to 1.5 components, or carrying a third one
        if spectral:
            F = random_band_limited(grid2d, rng, ncomp=2)
        else:
            F = PhysicalField(grid2d, rng.normal(size=(2, *grid2d.shape)))
        p = tmp_path / "f.hnsf"
        write_snapshot(p, F)
        raw = p.read_bytes()
        comp = (len(raw) - 33) // 2
        if defect == "cut":
            p.write_bytes(raw[: 33 + comp + comp // 2])
        else:
            p.write_bytes(raw + raw[33 : 33 + comp])
        with pytest.raises(InvalidFieldError, match="payload"):
            read_snapshot(p)
