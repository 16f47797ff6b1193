"""Dyadic decomposition, block norms, paraproducts, and inequality verifiers."""

import math

import numpy as np
import pytest

from hnslab.littlewood_paley import (
    InconclusiveReportError,
    UnsupportedNormError,
    besov_norm,
    decompose,
    estimate_constants,
    lp_sobolev_norm,
    paraproduct_split,
    verify_inequality,
)
from hnslab.spectral import (
    GridSpec,
    SpectralField,
    _index_magnitude,
    _sobolev_weight,
    dealias,
    padded_product,
    random_band_limited,
    single_mode,
    sobolev_norm,
)

from test_equivalence import lift


def partial_sum(D, p):
    """Low-pass field holding all blocks q < p (mean mode excluded)."""
    out = SpectralField.zeros(D.source.grid, D.source.ncomp)
    for q, blk in D.blocks:
        if q < p:
            out = out + blk
    return out


def sobolev_inner(F, G, sigma=0.0):
    """Real L2-type inner product with |k|^(2 sigma) weight."""
    w = _sobolev_weight(F.grid, sigma, F.cut)
    total = float(np.sum(w * np.sum((np.conj(F.coeffs) * G.coeffs).real, axis=0)))
    return F.grid.domain_length**F.grid.dim * total


class TestDecompose:
    def test_single_mode_one_block(self, grid2d):
        # |j| = 1.5 ... wait, use (1,1): |j| = sqrt(2) in [1, 2) -> block p = 0
        F = single_mode(grid2d, (1, 1))
        D = decompose(F)
        nonzero = [p for p, blk in D.blocks if sobolev_norm(blk, 0.0) > 0]
        assert nonzero == [0]

    def test_zero_field(self, grid2d):
        D = decompose(SpectralField.zeros(grid2d, 2))
        assert all(sobolev_norm(blk, 0.0) == 0.0 for _, blk in D.blocks)

    def test_reconstruction_oracle(self, grid2d, rng):
        for _ in range(10):
            F = random_band_limited(grid2d, rng, ncomp=2)
            D = decompose(F)
            acc = SpectralField.zeros(grid2d, 2)
            for _, blk in D.blocks:
                acc = acc + blk
            src = F.remove_mean()
            err = sobolev_norm(acc - src, 0.0)
            assert err <= 1e-12 * sobolev_norm(src, 0.0)

    def test_blocks_orthogonal(self, grid2d, rng):
        F = random_band_limited(grid2d, rng, ncomp=1)
        D = decompose(F)
        blocks = [b for _, b in D.blocks if sobolev_norm(b, 0.0) > 0]
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                ip = abs(sobolev_inner(blocks[i], blocks[j], 0.0))
                assert ip <= 1e-12 * sobolev_norm(F, 0.0) ** 2

    def test_almost_orthogonality_is_exact(self, grid2d, rng):
        F = random_band_limited(grid2d, rng, ncomp=2)
        D = decompose(F)
        total = sum(sobolev_norm(b, 0.0) ** 2 for _, b in D.blocks)
        ref = sobolev_norm(F.remove_mean(), 0.0) ** 2
        assert abs(total - ref) <= 1e-12 * ref

    def test_annulus_content(self, grid2d, rng):
        F = random_band_limited(grid2d, rng)
        D = decompose(F)
        m = _index_magnitude(grid2d)
        for p, blk in D.blocks:
            outside = (m < 2.0**p) | (m >= 2.0 ** (p + 1))
            assert np.max(np.abs(lift(blk)[0][outside])) == 0.0


class TestPartialSum:
    def test_below_range_zero(self, grid2d, rng):
        D = decompose(random_band_limited(grid2d, rng))
        assert sobolev_norm(partial_sum(D, D.p_min), 0.0) == 0.0

    def test_above_range_full(self, grid2d, rng):
        F = random_band_limited(grid2d, rng)
        D = decompose(F)
        S = partial_sum(D, D.p_max + 1)
        src = F.remove_mean()
        assert sobolev_norm(S - src, 0.0) <= 1e-12 * sobolev_norm(src, 0.0)

    def test_matches_sharp_lowpass_oracle(self, grid2d, rng):
        F = random_band_limited(grid2d, rng)
        D = decompose(F)
        p = 3
        got = partial_sum(D, p)
        m = _index_magnitude(grid2d)
        mask = (m >= 1.0) & (m < 2.0**p)
        want = SpectralField(grid2d, lift(F) * mask)
        assert sobolev_norm(got - want, 0.0) <= 1e-13 * sobolev_norm(want, 0.0)


class TestBlockNorms:
    def test_zero_field(self, grid2d):
        D = decompose(SpectralField.zeros(grid2d, 1))
        assert lp_sobolev_norm(D, 1.0) == 0.0
        assert besov_norm(D, 1.0, 2, 2) == 0.0

    def test_single_mode_annulus_edge_bracket(self, grid2d):
        # mode exactly at an annulus lower edge: |j| = 4 -> block p = 2,
        # weight anchor (2 pi/L) 2^p equals |k|, so the ratio is exactly 1;
        # a mode near the top of the annulus approaches 2^sigma
        F = single_mode(grid2d, (4, 0))
        D = decompose(F)
        for s in (0.5, 1.0, -1.0):
            r = lp_sobolev_norm(D, s) / sobolev_norm(F, s)
            assert 2.0 ** (-abs(s)) <= r <= 2.0 ** abs(s)
            assert np.isclose(r, 1.0, rtol=1e-12)
        G = single_mode(grid2d, (7, 0))  # |j| = 7 in [4, 8): ratio (4/7)^s
        Dg = decompose(G)
        assert np.isclose(lp_sobolev_norm(Dg, 1.0) / sobolev_norm(G, 1.0), 4.0 / 7.0)

    def test_ratio_bracket_random(self, grid2d_64, rng):
        for _ in range(100):
            F = random_band_limited(grid2d_64, rng, decay=rng.uniform(0.5, 3.0))
            D = decompose(F)
            for s in (-1.0, 0.5, 1.0, 1.5):
                r = lp_sobolev_norm(D, s) / sobolev_norm(F, s)
                assert 2.0 ** (-abs(s)) - 1e-12 <= r <= 2.0 ** abs(s) + 1e-12

    def test_besov_22_equals_lp_sobolev(self, grid2d, rng):
        D = decompose(random_band_limited(grid2d, rng))
        for s in (-0.5, 0.0, 1.0):
            assert besov_norm(D, s, 2, 2) == lp_sobolev_norm(D, s)

    def test_besov_l1_dominates_l2(self, grid2d, rng):
        D = decompose(random_band_limited(grid2d, rng))
        assert besov_norm(D, 1.0, 2, 1) >= besov_norm(D, 1.0, 2, 2)

    def test_besov_inf_sentinel(self, grid2d, rng):
        D = decompose(random_band_limited(grid2d, rng))
        assert besov_norm(D, 1.0, 2, math.inf) <= besov_norm(D, 1.0, 2, 2)

    def test_unsupported_combination(self, grid2d, rng):
        D = decompose(random_band_limited(grid2d, rng))
        with pytest.raises(UnsupportedNormError):
            besov_norm(D, 1.0, 3, 2)
        with pytest.raises(UnsupportedNormError):
            besov_norm(D, 1.0, 2, 7)


class TestParaproduct:
    def test_zero_factor(self, grid2d, rng):
        u = random_band_limited(grid2d, rng)
        h1, h2 = paraproduct_split(u, SpectralField.zeros(grid2d, 1))
        assert sobolev_norm(h1, 0.0) == 0.0
        assert sobolev_norm(h2, 0.0) == 0.0

    def test_two_mode_support_bookkeeping(self, grid2d):
        hi = single_mode(grid2d, (9, 0))
        lo = single_mode(grid2d, (1, 0))
        h1, h2 = paraproduct_split(hi, lo)
        prod = padded_product(hi, lo)
        assert np.max(np.abs(h2.coeffs)) == 0.0
        assert sobolev_norm(h1 - prod, 0.0) <= 1e-12 * sobolev_norm(prod, 0.0)

    def test_reconstruction_oracle(self, grid2d_64, rng):
        for _ in range(5):
            u = dealias(random_band_limited(grid2d_64, rng, decay=1.5))
            v = dealias(random_band_limited(grid2d_64, rng, decay=1.5))
            h1, h2 = paraproduct_split(u, v)
            exact = padded_product(u, v)
            err = sobolev_norm(h1 + h2 - exact, 0.0)
            assert err <= 1e-10 * sobolev_norm(exact, 0.0)

    def test_reconstruction_with_means(self, grid2d, rng):
        u = random_band_limited(grid2d, rng) + 0.7 * _constant(grid2d)
        v = random_band_limited(grid2d, rng) + (-1.3) * _constant(grid2d)
        h1, h2 = paraproduct_split(u, v)
        exact = padded_product(u, v)
        err = sobolev_norm(h1 + h2 - exact, 0.0)
        assert err <= 1e-10 * sobolev_norm(exact, 0.0)


def _constant(grid):
    coeffs = np.zeros((1, *grid.spectral_shape), dtype=complex)
    coeffs[(0,) + (0,) * grid.dim] = 1.0
    return SpectralField(grid, coeffs)


class TestVerifyInequality:
    def test_div_free_samples_trivial(self, grid2d):
        rep = verify_inequality("div_lp", 10, 0, grid2d, {"divergence_free": True})
        assert rep.max_ratio <= 1e-12

    def test_ladyzhenskaya_single_mode_closed_form(self, grid2d):
        # |f|_{L4}^2 / (|f|_{L2} |f|_{H1}) for A sin(2 pi x / L) is
        # sqrt(3/8) / pi, independent of amplitude and L
        from hnslab.spectral import lp_norm

        F = single_mode(grid2d, (1, 0), amplitude=1.3)
        ratio = lp_norm(F, 4) ** 2 / (lp_norm(F, 2) * sobolev_norm(F, 1.0))
        assert np.isclose(ratio, math.sqrt(3.0 / 8.0) / math.pi, rtol=1e-12)

    def test_bernstein_multiplier_bound(self, grid2d_64):
        # block q has wavenumbers in [k0 2^q, k0 2^(q+1)): the gradient/L2
        # ratio lies in [1, 2)
        rep = verify_inequality("bernstein", 40, 3, grid2d_64)
        assert 1.0 <= rep.max_ratio < 2.0

    def test_reports_are_finite_and_ordered(self, grid2d, grid3d):
        for name, g in [
            ("div_lp", grid2d),
            ("ladyzhenskaya", grid2d),
            ("besov_interp", grid2d),
            ("tame", grid2d),
            ("l3_embedding", grid3d),
        ]:
            rep = verify_inequality(name, 30, 11, g)
            assert np.isfinite(rep.max_ratio)
            assert 0 <= rep.mean_ratio <= rep.max_ratio

    def test_degenerate_sampling_raises(self, grid2d):
        with pytest.raises(InconclusiveReportError):
            _all_zero_ratio(grid2d)

    def test_bad_name(self, grid2d):
        with pytest.raises(ValueError):
            verify_inequality("nope", 5, 0, grid2d)

    def test_empty_dealias_box_raises_before_sampling(self):
        # dealias_cut 0: every draw would be the zero field
        with pytest.raises(ValueError, match="no nonzero mode"):
            verify_inequality("tame", 10, 1, GridSpec(2, 8, dealias_fraction=0.1))

    def test_csv_row_schema(self, grid2d):
        rep = verify_inequality("ladyzhenskaya", 5, 9, grid2d)
        row = rep.csv_row(grid2d)
        assert row.startswith("ladyzhenskaya,5,")
        assert row.endswith(f",9,2,32,{grid2d.domain_length:.17g}")


def _all_zero_ratio(grid):
    # feed the verifier a stream that is all-degenerate by monkeypatching is
    # overkill; the zero field gives RHS = 0 for the tame product check
    from hnslab import littlewood_paley as lp

    gen = iter([(0.0, 0.0)] * 3)
    orig = lp._RATIO_GENERATORS["tame"]
    lp._RATIO_GENERATORS["tame"] = lambda *a, **k: gen
    try:
        lp.verify_inequality("tame", 3, 0, grid)
    finally:
        lp._RATIO_GENERATORS["tame"] = orig


class TestEstimateConstants:
    def test_identity_and_determinism(self):
        g2, g3 = GridSpec(2, 32), GridSpec(3, 16)
        c1 = estimate_constants(5, 100, g2, g3)
        c2 = estimate_constants(5, 100, g2, g3)
        assert c1 == c2
        assert c1["identity_sigma0"] == 1.0
        assert c1["C4_interp"] == 1.0
        for k in ("K", "K2", "C2_interp", "C3_nonlinear"):
            assert np.isfinite(c1[k]) and c1[k] > 0
        assert np.isclose(c1["smallness_threshold_3d"], 1.0 / (36.0 * c1["K2"] ** 3))

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            estimate_constants(1, 10)
