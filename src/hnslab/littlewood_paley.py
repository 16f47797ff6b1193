"""Dyadic frequency decomposition, block-built norms, and inequality verifiers.

Blocks use sharp annulus cutoffs in the integer index magnitude m = |k| L/(2 pi):
block p holds modes with 2^p <= m < 2^(p+1), anchored so p = 0 starts at the
fundamental wavenumber 2 pi / L.  Sharp cutoffs make reconstruction and block
orthogonality exact on the discrete torus; the smooth bump functions used in
the classical theory are deliberately not emulated.

The inequality verifiers measure empirical max/mean LHS/RHS ratios over seeded
samples of band-limited fields.  They certify boundedness and record working
constants; they cannot certify sharp analytic constants.  The sampler, the
ratio generators and the C3 loop of `estimate_constants` work on coefficient
arrays: a sample is drawn by `_random_half`, its products are `_padded_half`
and its norms `_norm` or quadratures of one inverse transform, and no
`SpectralField` is built per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    GridSpec,
    SpectralField,
    _derivatives,
    _index_magnitude,
    _irfft,
    _linf,
    _norm,
    _padded_half,
    _random_half,
    _rfft,
    _sample_norm,
    dealias_mask,
    gaussian_bump,
    padded_product,
    sobolev_norm,
)

__all__ = [
    "DyadicDecomposition",
    "InequalityReport",
    "UnsupportedNormError",
    "InconclusiveReportError",
    "decompose",
    "lp_sobolev_norm",
    "besov_norm",
    "paraproduct_split",
    "verify_inequality",
    "estimate_constants",
    "INEQUALITY_NAMES",
]


class UnsupportedNormError(ValueError):
    """Raised for (p, r) Besov combinations outside the supported set."""


class InconclusiveReportError(RuntimeError):
    """Raised when every sample of an inequality had a vanishing right side."""


@dataclass
class DyadicDecomposition:
    """Family of sharp dyadic blocks of a field, mean mode excluded."""

    source: SpectralField
    blocks: list[tuple[int, SpectralField]]
    p_min: int
    p_max: int

    def block(self, p: int) -> SpectralField:
        if p < self.p_min or p > self.p_max:
            return SpectralField.zeros(self.source.grid, self.source.ncomp)
        return self.blocks[p - self.p_min][1]


@lru_cache(maxsize=64)
def _annulus_masks(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Sharp block masks, one per dyadic block."""
    m = _index_magnitude(grid)
    p_max = int(np.floor(np.log2(np.max(m))))
    masks = []
    for p in range(p_max + 1):
        masks.append((m >= 2.0**p) & (m < 2.0 ** (p + 1)))
    return tuple(masks)


def decompose(F: SpectralField) -> DyadicDecomposition:
    """Split a field into its full family of sharp dyadic blocks."""
    masks = _annulus_masks(F.grid)
    blocks = [
        (p, SpectralField(F.grid, F.coeffs * mask, is_mean_zero=True))
        for p, mask in enumerate(masks)
    ]
    return DyadicDecomposition(source=F, blocks=blocks, p_min=0, p_max=len(masks) - 1)


def lp_sobolev_norm(D: DyadicDecomposition, sigma: float) -> float:
    """Block-sum Sobolev norm with weights ((2 pi / L) 2^p)^(2 sigma): besov_norm(D, sigma, 2, 2).

    Agrees with the direct Plancherel norm within [2^-|sigma|, 2^|sigma|]
    because each block's wavenumbers span one octave.
    """
    return besov_norm(D, sigma, 2, 2)


def besov_norm(D: DyadicDecomposition, s: float, p: int = 2, r: float = 2) -> float:
    """Homogeneous Besov norm from block L^p norms: ell^r of weighted blocks.

    Only p = 2 is implemented (block L2 via Plancherel); r may be 1, 2, or
    math.inf.  The weights are physical wavenumbers; Besov (2,2) is
    lp_sobolev_norm.
    """
    if p != 2 or r not in (1, 2) and not math.isinf(r):
        raise UnsupportedNormError(f"unsupported Besov combination p={p}, r={r}")
    k0 = D.source.grid.k_fundamental
    terms = []
    for j, blk in D.blocks:
        l2 = sobolev_norm(blk, 0.0)
        terms.append((k0 * 2.0**j) ** s * l2)
    a = np.asarray(terms)
    if r == 1:
        return float(np.sum(a))
    if r == 2:
        return float(np.sqrt(np.sum(a * a)))
    return float(np.max(a)) if a.size else 0.0


def paraproduct_split(u: SpectralField, v: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Split the product uv into its two frequency-interaction halves.

    half1 = sum_p  D_p u * S_(p+1) v   (u's block against v's strictly lower half)
    half2 = sum_q  D_q v * S_q u
    where the partial sums include the mean mode, and the residual mean-times-
    mean term is folded into half1 so that half1 + half2 reconstructs the
    Galerkin-truncated product exactly.  All block products are computed
    alias-free via padded transforms.
    """
    u._check_same_grid(v)
    du, dv = decompose(u), decompose(v)
    grid = u.grid
    ncomp = max(u.ncomp, v.ncomp)

    mean_u = SpectralField(grid, u.coeffs - u.remove_mean().coeffs)
    mean_v = SpectralField(grid, v.coeffs - v.remove_mean().coeffs)

    # cumulative partial sums, built once; S_p includes the mean part
    lows_v = {}
    acc = mean_v
    for p in range(dv.p_min, dv.p_max + 2):
        lows_v[p] = acc
        if p <= dv.p_max:
            acc = acc + dv.block(p)
    lows_u = {}
    acc = mean_u
    for p in range(du.p_min, du.p_max + 2):
        lows_u[p] = acc
        if p <= du.p_max:
            acc = acc + du.block(p)

    half1 = SpectralField.zeros(grid, ncomp)
    for p, blk in du.blocks:
        low = lows_v.get(p + 1, lows_v[max(lows_v)])
        if np.any(blk.coeffs) and np.any(low.coeffs):
            half1 = half1 + padded_product(blk, low)
    half2 = SpectralField.zeros(grid, ncomp)
    for q, blk in dv.blocks:
        low = lows_u[q]
        if np.any(blk.coeffs) and np.any(low.coeffs):
            half2 = half2 + padded_product(blk, low)
    # mean-times-mean has no block home; add it to half1
    mm = np.zeros((ncomp, *grid.spectral_shape), dtype=np.complex128)
    zero = (slice(None),) + (0,) * grid.dim
    mm[zero] = (mean_u.coeffs * mean_v.coeffs)[zero]
    half1 = half1 + SpectralField(grid, mm)
    return half1, half2


# ---------------------------------------------------------------------------
# inequality verification
# ---------------------------------------------------------------------------

INEQUALITY_NAMES = (
    "div_lp",
    "ladyzhenskaya",
    "besov_interp",
    "tame",
    "bernstein",
    "l3_embedding",
)

# ratios below this relative floor are counted as degenerate and skipped
_RHS_FLOOR = 1e-300


@dataclass
class InequalityReport:
    """Empirical LHS/RHS ratio statistics for one named inequality."""

    name: str
    samples: int
    max_ratio: float
    mean_ratio: float
    witness_seed: int
    skipped: int = 0

    def csv_row(self, grid: GridSpec) -> str:
        return (
            f"{self.name},{self.samples},{self.max_ratio:.17g},"
            f"{self.mean_ratio:.17g},{self.witness_seed},"
            f"{grid.dim},{grid.n_per_axis},{grid.domain_length:.17g}"
        )

    @staticmethod
    def csv_header() -> str:
        return "name,trials,max_ratio,mean_ratio,seed,dim,n,L"


def _probe_fields(grid: GridSpec, ncomp: int) -> list[np.ndarray]:
    """Deterministic near-extremal probes mixed into every sampler stream, as coefficients.

    Gaussians of a few widths are near-optimizers of the Gagliardo-Nirenberg
    family; including them pins the empirical maxima so reported constants are
    reproducible across seeds.  The two single modes sin(k x_0) sit on the
    plane j = 0 of the last axis, where the half spectrum holds both k and -k.
    """
    L = grid.domain_length
    n = grid.n_per_axis
    mean = (slice(None), *(0,) * grid.dim)
    probes = []
    for frac in (8.0, 16.0, 32.0):
        bump = _rfft(gaussian_bump(grid, sigma=L / frac).values)
        bump[mean] = 0.0
        bump *= dealias_mask(grid)
        probes.append(np.concatenate([bump] * ncomp))
    for kidx in (1, 2):
        mode = np.zeros((ncomp, *grid.spectral_shape), dtype=np.complex128)
        rest = (0,) * (grid.dim - 1)
        mode[(0, kidx, *rest)] = 1.0 / 2j
        mode[(0, n - kidx, *rest)] = -1.0 / 2j
        probes.append(mode)
    return probes


def _sample_stream(grid, rng, trials, ncomp=1, divergence_free=False):
    """Coefficients of the probes, then of dealiased `random_band_limited` draws."""
    probes = [] if divergence_free else _probe_fields(grid, ncomp)
    for t in range(trials):
        if t < len(probes):
            yield probes[t]
        else:
            decay = rng.uniform(0.6, 3.0)
            f = _random_half(grid, rng, ncomp=ncomp, decay=decay, divergence_free=divergence_free)
            yield f * dealias_mask(grid)


def _ratio_div_lp(grid, rng, trials, delta, divergence_free=False, **_):
    sigma_hi = grid.dim / 2.0 + delta
    sigma_lo = sigma_hi - 1.0
    ik = _derivatives(grid)
    for u in _sample_stream(grid, rng, trials, ncomp=grid.dim, divergence_free=divergence_free):
        div_u = ik[0] * u[0]
        for i in range(1, grid.dim):
            div_u += ik[i] * u[i]
        prod = _padded_half(div_u[np.newaxis], u, grid)
        lhs = _norm(prod, grid, sigma_lo)
        rhs = _norm(u, grid, sigma_hi) * _linf(u, grid)
        yield lhs, rhs


def _ratio_ladyzhenskaya(grid, rng, trials, **_):
    for f in _sample_stream(grid, rng, trials, ncomp=1):
        samples = _irfft(f)
        lhs = _sample_norm(samples, grid, 4) ** 2
        rhs = _sample_norm(samples, grid, 2) * _norm(f, grid, 1.0)
        yield lhs, rhs


def _ratio_besov_interp(grid, rng, trials, delta=0.5, **_):
    sigma_lo = grid.dim / 2.0 - 1.0 + delta
    sigma_hi = grid.dim / 2.0 + delta
    for f in _sample_stream(grid, rng, trials, ncomp=1):
        lhs = _linf(f, grid)
        rhs = _norm(f, grid, sigma_lo) ** delta
        rhs *= _norm(f, grid, sigma_hi) ** (1.0 - delta)
        yield lhs, rhs


def _ratio_tame(grid, rng, trials, s=1.5, **_):
    mask = dealias_mask(grid)
    for f in _sample_stream(grid, rng, trials, ncomp=1):
        g = _random_half(grid, rng, ncomp=1, decay=rng.uniform(0.6, 3.0)) * mask
        lhs = _norm(_padded_half(f, g, grid), grid, s)
        rhs = _linf(f, grid) * _norm(g, grid, s)
        rhs += _norm(f, grid, s) * _linf(g, grid)
        yield lhs, rhs


def _ratio_bernstein(grid, rng, trials, **_):
    k0 = grid.k_fundamental
    masks = _annulus_masks(grid)
    for f in _sample_stream(grid, rng, trials, ncomp=1):
        best = 0.0
        for q, mask in enumerate(masks):
            blk = f * mask
            l2 = _norm(blk, grid, 0.0)
            if l2 <= _RHS_FLOOR:
                continue
            # |grad blk|_2 = |blk|_{H^1}
            ratio = _norm(blk, grid, 1.0) / (k0 * 2.0**q * l2)
            best = max(best, ratio)
        yield best, 1.0


def _ratio_l3_embedding(grid, rng, trials, **_):
    for f in _sample_stream(grid, rng, trials, ncomp=1):
        lhs = _sample_norm(_irfft(f), grid, 3)
        rhs = _norm(f, grid, 0.5)
        yield lhs, rhs


def _ratio_nonlinear(grid, rng, trials, delta=0.5, **_):
    """2D nonlinearity bound |(u.grad)u|_{H^delta} <= C3 |u|_inf |u|_{H^(1+delta)}."""
    ik = _derivatives(grid)
    for u in _sample_stream(grid, rng, trials, ncomp=grid.dim):
        conv = _padded_half(u[:1], ik[0] * u, grid)
        for i in range(1, grid.dim):
            conv += _padded_half(u[i : i + 1], ik[i] * u, grid)
        lhs = _norm(conv, grid, delta)
        rhs = _linf(u, grid) * _norm(u, grid, 1.0 + delta)
        yield lhs, rhs


_RATIO_GENERATORS = {
    "div_lp": _ratio_div_lp,
    "ladyzhenskaya": _ratio_ladyzhenskaya,
    "besov_interp": _ratio_besov_interp,
    "tame": _ratio_tame,
    "bernstein": _ratio_bernstein,
    "l3_embedding": _ratio_l3_embedding,
}


def verify_inequality(
    name: str,
    trials: int,
    seed: int,
    grid: GridSpec,
    params: dict | None = None,
) -> InequalityReport:
    """Measure empirical LHS/RHS ratios of a named inequality over seeded samples.

    `params` may supply delta, s, or divergence_free as the inequality needs.
    Samples with vanishing right side are skipped and counted; if every sample
    degenerates the report would be meaningless and InconclusiveReportError is
    raised.
    """
    if name not in _RATIO_GENERATORS:
        raise ValueError(f"unknown inequality {name!r}; choose from {INEQUALITY_NAMES}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if name == "ladyzhenskaya" and grid.dim != 2:
        raise ValueError("ladyzhenskaya inequality is stated for dim = 2")
    if name == "l3_embedding" and grid.dim != 3:
        raise ValueError("l3_embedding requires dim = 3")
    params = dict(params or {})
    params.setdefault("delta", 0.5)
    params.setdefault("s", 1.0 + params["delta"] if grid.dim == 2 else 0.5 + params["delta"])
    rng = np.random.default_rng(seed)
    ratios = []
    skipped = 0
    for lhs, rhs in _RATIO_GENERATORS[name](grid, rng, trials, **params):
        if rhs <= _RHS_FLOOR or not np.isfinite(rhs):
            skipped += 1
            continue
        r = lhs / rhs
        if not np.isfinite(r):
            raise InconclusiveReportError(f"non-finite ratio in {name}")
        ratios.append(r)
    if not ratios:
        raise InconclusiveReportError(f"all {trials} samples of {name} had zero right side")
    arr = np.asarray(ratios)
    return InequalityReport(
        name=name,
        samples=len(ratios),
        max_ratio=float(np.max(arr)),
        mean_ratio=float(np.mean(arr)),
        witness_seed=seed,
        skipped=skipped,
    )


def estimate_constants(
    seed: int,
    trials: int,
    grid2d: GridSpec | None = None,
    grid3d: GridSpec | None = None,
    delta: float = 0.5,
) -> dict[str, float]:
    """Empirical working constants for the threshold formulas.

    Returns max ratios measured by `verify_inequality` plus the exact
    identities that need no measurement.  Deterministic given the seed; the
    smallness thresholds (e.g. 1 / (36 K2^3)) must always be computed from one
    declared run of this oracle.
    """
    if trials < 100:
        raise ValueError("trials must be >= 100 for stable constants")
    if grid2d is None:
        grid2d = GridSpec(2, 64)
    if grid3d is None:
        grid3d = GridSpec(3, 32)

    consts: dict[str, float] = {"identity_sigma0": 1.0}
    # Plancherel interpolation |u|_{H^d} <= |u|_2^(1-d) |u|_{H^1}^d is Hoelder
    # with constant exactly 1 on the torus
    consts["C4_interp"] = 1.0

    consts["K"] = verify_inequality("ladyzhenskaya", trials, seed, grid2d).max_ratio
    consts["K2"] = verify_inequality("l3_embedding", trials, seed + 1, grid3d).max_ratio
    consts["C2_interp"] = verify_inequality(
        "besov_interp", trials, seed + 2, grid2d, {"delta": delta}
    ).max_ratio
    consts["C1_tame"] = verify_inequality(
        "tame", trials, seed + 3, grid2d, {"s": 1.0 + delta}
    ).max_ratio
    consts["C_div_lp"] = verify_inequality(
        "div_lp", trials, seed + 4, grid2d, {"delta": delta}
    ).max_ratio
    consts["C0_bernstein"] = verify_inequality("bernstein", trials, seed + 5, grid2d).max_ratio

    best = 0.0
    for lhs, rhs in _ratio_nonlinear(grid2d, np.random.default_rng(seed + 6), trials, delta):
        if rhs > _RHS_FLOOR:
            best = max(best, lhs / rhs)
    consts["C3_nonlinear"] = best
    consts["smallness_threshold_3d"] = 1.0 / (36.0 * consts["K2"] ** 3)
    return consts
