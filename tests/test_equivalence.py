"""Real-to-complex transforms against the complex-transform forms they replaced.

Each oracle is the earlier implementation: complex fftn/ifftn, a Hermitian
projection after every forward transform, and the nonlinear term as one
collocation product per component plus one for (div u) u.  Full-band fields
(kmax = n) carry Nyquist content, where a derivative along any axis but the
last is not Hermitian.
"""

import numpy as np
import pytest

from hnslab.solvers import nonlinear_term
from hnslab.spectral import (
    GridSpec,
    PhysicalField,
    SpectralField,
    dealias,
    divergence,
    gradient,
    helmholtz_project,
    padded_product,
    partial_derivative,
    random_band_limited,
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


def full_band(grid, seed, ncomp=1):
    return random_band_limited(grid, np.random.default_rng(seed), ncomp=ncomp, kmax=grid.n_per_axis)


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
        calls = []
        depth = [0]

        def counted(fn):
            def wrapper(*args, **kwargs):
                if depth[0] == 0:  # a transform built from another counts once
                    calls.append(fn.__name__)
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1

            return wrapper

        for name in TRANSFORMS:
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        nonlinear_term(u)
        assert len(calls) == 2, calls
