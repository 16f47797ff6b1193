"""Spectral representation of periodic vector fields and Fourier-multiplier operators.

Fields live on a d-dimensional torus [0, L)^d (d = 2 or 3) sampled on a uniform
grid with the same resolution per axis.  A `SpectralField` stores, per
component, a box of the rfftn half spectrum of a real field with *forward*
normalization: the coefficient at wavevector k is the amplitude of exp(i k.x).
Modes with a negative last-axis index are the conjugates of their mirror
images -k and are not stored, so a field always stands for a real field.

Boxes and extents: the box of extent cut <= n/2 holds the modes with every
|j_axis| <= cut, stored as (ncomp, 2 cut + 1, ..., cut + 1) in fftfreq
order; a leading axis is whole when 2 cut + 1 >= n, so the box of extent n/2
is the whole half spectrum.  A field's extent is read from its shape, and
the field is zero outside its box.  The 2/3 rule keeps the dealias box, of
extent `grid.dealias_cut` and shape `grid.box_shape`, and `dealias` returns
a field there.  `to_spectral` and `read_snapshot` give extent n/2, their
data being full band; every other constructor gives the smallest box that
holds its field: `SpectralField.zeros` extent 0 (the mean alone),
`random_band_limited` min(kmax, n/2), `single_mode` min(max |index|, n/2).
Where fields of two extents meet the result takes the larger one; `_resize`
gathers a box from a larger one or scatters it into a larger one, zero
outside.

All differential operators are exact diagonal multipliers, and every
operator and norm exists once, reading its table (index vectors, odd
wavevector, `_derivatives`, `k_squared`, `k_abs`, `_inv_k_squared`, Sobolev
weights) on its field's box.  Sobolev norms weight each stored mode by its
Hermitian multiplicity: 1 on the self-conjugate planes j = 0 and j = n/2 of
the last axis, which hold both k and -k, and 2 elsewhere.  Odd multipliers
(the derivatives and the Helmholtz projection) use the wavevector that is
zero at each axis's Nyquist index n/2, present only at extent n/2, where the
modes j and -j share one coefficient: an odd multiplier has no Hermitian
part there, and zeroing it keeps every result a real field.

Every transform of the package is one of two real-to-complex helpers,
`_rfft` and `_irfft`, and both run numpy's own one-axis passes
(`fft`/`ifft`/`rfft`/`irfft`) in rfftn's and irfftn's order, every pass
writing into a caller buffer, often a strided view, through `out=` (numpy
2.0 and later).  `_rfft` returns the box of a given extent of the spectrum
and `_irfft` reads a box of any extent; below extent n/2 their passes
transform only the lines that meet the box.  Each line is transformed as
rfftn/irfftn transform it, so the results are bitwise theirs.

Full coefficient arrays appear only at the edges: `_full` completes a half
spectrum to its exactly Hermitian full array and `_half` takes the half
spectrum of a full array's Hermitian part.  `write_snapshot` writes the full
array of a field lifted to extent n/2 and `read_snapshot` keeps its half
spectrum, so the HNSF layout (version 1) is unchanged.  `single_mode` and
`random_band_limited` gather their box from the `_half` of a full array;
the latter draws its normals on the full grid, so seeded samples are kept.

The private array helpers carry the hot paths that build no field:
`_random_half` draws `random_band_limited`'s samples, `_padded_half` forms
`padded_product` from one padded inverse transform per factor, read from
its own box, and one forward transform of the product, `_irrotational` is
the Q projection and `_norm` is `sobolev_norm`.  `_rfft`, `_irfft`,
`_irrotational` and `_resize` take an `out=` array, so the stepper's
workspace (see `solvers`) receives their results without a fresh
allocation.

Conventions baked in here and relied on everywhere else:

* wavenumber along an axis is (2*pi/L) * j with integer j in [-n/2, n/2)
* the k = 0 mode belongs to the divergence-free (P) part of the Helmholtz
  split and is excluded from every |k|^sigma multiplier
* a field's mean is its k = 0 coefficient, and whoever needs it zero writes it
* homogeneous Sobolev norms are Plancherel sums scaled to agree with the
  physical-space L2 norm at sigma = 0, the one order that counts the mean
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "GridSpec",
    "SpectralField",
    "PhysicalField",
    "InvalidFieldError",
    "SingularMultiplierError",
    "to_spectral",
    "to_physical",
    "gradient",
    "divergence",
    "laplacian",
    "partial_derivative",
    "helmholtz_project",
    "lambda_power",
    "sobolev_norm",
    "lp_norm",
    "linf_norm",
    "dealias",
    "padded_product",
    "single_mode",
    "random_band_limited",
    "gaussian_bump",
    "write_snapshot",
    "read_snapshot",
]

SNAPSHOT_MAGIC = b"HNSF"
SNAPSHOT_VERSION = 1

# |coefficient| below this (relative to the field max) counts as zero mean
_MEAN_TOL = 1e-12


class InvalidFieldError(ValueError):
    """Raised for non-finite samples or inconsistent grids."""


class SingularMultiplierError(ValueError):
    """Raised when a negative power of |k| meets a nonzero mean mode."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: `n_per_axis` points per axis on [0, L)^dim."""

    dim: int
    n_per_axis: int
    domain_length: float = 2.0 * np.pi
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        n = self.n_per_axis
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"n_per_axis must be a power of two >= 8, got {n}")
        if not (self.domain_length > 0):
            raise ValueError("domain_length must be positive")
        if not (0 < self.dealias_fraction <= 1):
            raise ValueError("dealias_fraction must lie in (0, 1]")
        fields = (self.dim, n, self.domain_length, self.dealias_fraction)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        # every table cache looks a grid up by hash; the dataclass hash
        # would rebuild the field tuple on each lookup
        return self._hash

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_per_axis,) * self.dim

    @property
    def spectral_shape(self) -> tuple[int, ...]:
        """Shape of one component's half spectrum: the last axis keeps j = 0..n/2."""
        return (*self.shape[:-1], self.n_per_axis // 2 + 1)

    @property
    def npoints(self) -> int:
        return self.n_per_axis**self.dim

    @property
    def spacing(self) -> float:
        return self.domain_length / self.n_per_axis

    @property
    def k_fundamental(self) -> float:
        """Physical wavenumber of the lowest nonzero mode, 2*pi/L."""
        return 2.0 * np.pi / self.domain_length

    @property
    def k_max(self) -> float:
        """Physical Nyquist wavenumber per axis."""
        return self.k_fundamental * (self.n_per_axis // 2)

    @property
    def dealias_cut(self) -> int:
        """Largest per-axis index |j| surviving `dealias`: floor(dealias_fraction * n/2)."""
        return math.floor(self.dealias_fraction * (self.n_per_axis // 2))

    @property
    def box_shape(self) -> tuple[int, ...]:
        """Shape of one component's dealias box: the modes with every |j_axis| <= dealias_cut."""
        return _box_shape(self.n_per_axis, self.dim, self.dealias_cut)

    @property
    def k_max_dealiased(self) -> float:
        """Largest per-axis wavenumber surviving `dealias`."""
        return self.k_fundamental * self.dealias_cut

    def axes(self) -> tuple[np.ndarray, ...]:
        """Physical sample coordinates along each axis."""
        x = np.arange(self.n_per_axis) * self.spacing
        return (x,) * self.dim

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*self.axes(), indexing="ij")


# ---------------------------------------------------------------------------
# multiplier tables, each on the box of a given extent
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _index_vectors(grid: GridSpec, cut: int | None = None) -> tuple[np.ndarray, ...]:
    """Integer mode indices j per axis, broadcastable to the box of extent cut (None: n/2).

    A leading axis holds j = 0..cut, then -cut..-1, or, when that covers
    it, all of 0, 1, ..., n/2-1, -n/2, ..., -1; the last axis holds the first
    cut + 1 of these.  At extent n/2 the box is the half grid, with -n/2 at
    the last axis's Nyquist index n/2.
    """
    n = grid.n_per_axis
    cut = n // 2 if cut is None else cut
    j = np.fft.fftfreq(n, d=1.0 / n)
    lead = np.concatenate([j[f] for _, f in _axis_blocks(n, cut, n // 2)])
    out = []
    for ax, axis_j in enumerate((lead,) * (grid.dim - 1) + (j[: cut + 1],)):
        shape = [1] * grid.dim
        shape[ax] = axis_j.size
        out.append(axis_j.reshape(shape))
    return tuple(out)


@lru_cache(maxsize=32)
def _index_magnitude(grid: GridSpec, cut: int | None = None) -> np.ndarray:
    """|j| = Euclidean norm of the integer index vector, on the box of extent cut."""
    return np.sqrt(sum(j * j for j in _index_vectors(grid, cut)))


def wavenumbers(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Physical wavenumber arrays k_j = (2*pi/L)*j, broadcastable per axis."""
    return tuple(grid.k_fundamental * j for j in _index_vectors(grid))


def _odd_indices(grid: GridSpec, cut: int) -> tuple[np.ndarray, ...]:
    """`_index_vectors` with 0 in place of the Nyquist index -n/2 (present only at extent n/2)."""
    nyquist = -(grid.n_per_axis // 2)
    return tuple(np.where(j == nyquist, 0.0, j) for j in _index_vectors(grid, cut))


@lru_cache(maxsize=32)
def _odd_wavenumbers(grid: GridSpec, cut: int) -> tuple[np.ndarray, ...]:
    """`wavenumbers` with 0 at each axis's Nyquist index, on the box of extent cut: the odd multipliers' wavevector."""
    return tuple(grid.k_fundamental * j for j in _odd_indices(grid, cut))


@lru_cache(maxsize=32)
def _derivatives(grid: GridSpec, cut: int) -> tuple[np.ndarray, ...]:
    """Multipliers i k_axis of d/dx_axis on the box of extent cut, zero at the Nyquist index.

    There the modes j and -j share one coefficient, so i k X of a real
    field's X has no Hermitian part and the real field ifftn(i k X).real
    drops it; the multiplier drops it too.
    """
    return tuple(1j * k for k in _odd_wavenumbers(grid, cut))


@lru_cache(maxsize=32)
def k_squared(grid: GridSpec, cut: int) -> np.ndarray:
    return (grid.k_fundamental * _index_magnitude(grid, cut)) ** 2


@lru_cache(maxsize=32)
def _inv_k_squared(grid: GridSpec, cut: int) -> np.ndarray:
    """1/|k|^2 of the odd multipliers' wavevector, 0 where it vanishes (read-only: shared).

    Built from the integer indices as `k_squared` is, so off the Nyquist
    modes it is exactly 1/k_squared.  On the box of extent cut.
    """
    m2 = sum(j**2 for j in _odd_indices(grid, cut))
    k2 = (grid.k_fundamental * np.sqrt(m2)) ** 2
    inv = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)
    inv.flags.writeable = False
    return inv


@lru_cache(maxsize=32)
def k_abs(grid: GridSpec, cut: int) -> np.ndarray:
    return grid.k_fundamental * _index_magnitude(grid, cut)


def _k_power(grid: GridSpec, p: float, cut: int) -> np.ndarray:
    """|k|^p on the box of extent cut, 0 at k = 0."""
    ka = k_abs(grid, cut)
    out = np.zeros_like(ka)
    out[ka > 0] = ka[ka > 0] ** p
    return out


@lru_cache(maxsize=64)
def _sobolev_weight(grid: GridSpec, sigma: float, cut: int) -> np.ndarray:
    """|k|^(2 sigma) times each stored mode's Hermitian multiplicity on the box of extent cut (read-only: shared).

    |k|^(2 sigma) is 0 at k = 0 unless sigma = 0.  A coefficient off the
    self-conjugate planes j = 0 and j = n/2 of the last axis stands for
    itself and its mirror image -k, so it counts twice in the Plancherel sum.
    """
    w = np.ones_like(k_abs(grid, cut)) if sigma == 0 else _k_power(grid, 2.0 * sigma, cut)
    last = np.arange(cut + 1)
    w = w * np.where((last == 0) | (last == grid.n_per_axis // 2), 1.0, 2.0)
    w.flags.writeable = False
    return w


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------


def _box_shape(n: int, dim: int, cut: int) -> tuple[int, ...]:
    """Shape of one component's box of extent cut: the modes with every |j_axis| <= cut."""
    return (min(2 * cut + 1, n),) * (dim - 1) + (cut + 1,)


def _axis_blocks(n: int, have: int, cut: int) -> tuple[tuple[slice, slice], ...]:
    """(box of extent have, box of extent cut) slice pairs of one leading axis, for the smaller box.

    Its runs j = 0..c and j = -c..-1, c = min(have, cut); when they meet
    (2 c + 1 >= n) both boxes are the whole axis.
    """
    c = min(have, cut)
    if 2 * c + 1 >= n:
        return ((slice(None), slice(None)),)
    a, b = min(2 * have + 1, n), min(2 * cut + 1, n)
    return ((slice(0, c + 1),) * 2, (slice(a - c, a), slice(b - c, b)))


def _resize(x: np.ndarray, grid: GridSpec, cut: int, out: np.ndarray | None = None) -> np.ndarray:
    """The box of extent cut of the field whose box is x: gathered from a larger box, zero outside a smaller one.

    x has shape (..., *box) with extent x.shape[-1] - 1; the result goes to
    out (fresh if None), which must not overlap x.
    """
    n, dim, have = grid.n_per_axis, grid.dim, x.shape[-1] - 1
    if out is None:
        out = np.empty((*x.shape[:-dim], *_box_shape(n, dim, cut)), dtype=np.complex128)
    if cut > have:
        out.fill(0.0)
    last = (slice(0, min(have, cut) + 1),) * 2
    for blocks in itertools.product(_axis_blocks(n, have, cut), repeat=dim - 1):
        src, dst = zip(*blocks, last)
        out[(Ellipsis, *dst)] = x[(Ellipsis, *src)]
    return out


class SpectralField:
    """A box of the rfftn half spectrum of a real field on the torus, zero outside it.

    `coeffs` has shape (ncomp, *box) with ncomp 1 (scalar) or dim (vector)
    and box the box of extent cut = coeffs.shape[-1] - 1 <= n/2; extent n/2
    is the whole half spectrum, (ncomp, *grid.spectral_shape).  A field is
    its coefficients, its mean the k = 0 ones: the constructor wraps `coeffs`
    and writes nothing.  Instances are treated as immutable values:
    operations return new fields and never mutate their inputs.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: GridSpec, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim == grid.dim:
            coeffs = coeffs[np.newaxis]
        n, dim = grid.n_per_axis, grid.dim
        cut = coeffs.shape[-1] - 1 if coeffs.ndim == dim + 1 else -1
        if not 0 <= cut <= n // 2 or coeffs.shape[1:] != _box_shape(n, dim, cut) or len(coeffs) not in (1, dim):
            raise InvalidFieldError(
                f"coefficient shape {coeffs.shape} is no box of the grid's half spectrum "
                f"{grid.spectral_shape}"
            )
        self.grid = grid
        self.coeffs = coeffs

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[0]

    @property
    def cut(self) -> int:
        """The extent of the box the coefficients hold."""
        return self.coeffs.shape[-1] - 1

    @classmethod
    def zeros(cls, grid: GridSpec, ncomp: int = 1) -> "SpectralField":
        """The zero field on the box of extent 0, the mean mode alone."""
        return cls(grid, np.zeros((ncomp, *(1,) * grid.dim), dtype=np.complex128))

    def component(self, i: int) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs[i : i + 1].copy())

    def remove_mean(self) -> "SpectralField":
        """The field minus its mean: a copy whose k = 0 coefficients are 0."""
        coeffs = self.coeffs.copy()
        coeffs[_mean(self.grid)] = 0.0
        return SpectralField(self.grid, coeffs)

    def _check_same_grid(self, other: "SpectralField"):
        if self.grid != other.grid:
            raise InvalidFieldError("grid mismatch")

    def _combine(self, other: "SpectralField", op) -> "SpectralField":
        """op of the two coefficient boxes, on the larger extent."""
        self._check_same_grid(other)
        if self.ncomp != other.ncomp:
            raise InvalidFieldError("component count mismatch")
        a, b = self.coeffs, other.coeffs
        if a.shape[-1] < b.shape[-1]:
            a = _resize(a, self.grid, other.cut)
        elif b.shape[-1] < a.shape[-1]:
            b = _resize(b, self.grid, self.cut)
        return SpectralField(self.grid, op(a, b))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return self._combine(other, np.add)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return self._combine(other, np.subtract)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)


@dataclass
class PhysicalField:
    """Real samples of a field on the uniform grid, shape (ncomp, n, n[, n])."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim == self.grid.dim:
            self.values = self.values[np.newaxis]
        if self.values.shape[1:] != self.grid.shape or self.values.shape[0] not in (1, self.grid.dim):
            raise InvalidFieldError(
                f"sample shape {self.values.shape} incompatible with grid {self.grid.shape}"
            )

    @property
    def ncomp(self) -> int:
        return self.values.shape[0]


# ---------------------------------------------------------------------------
# transforms: every FFT of the package is one of _rfft and _irfft
# ---------------------------------------------------------------------------


def _rfft(
    values: np.ndarray,
    cut: int,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Box of extent cut of the rfftn spectrum of real samples (ncomp, n, ...).

    numpy's own passes run in rfftn's order: rfft over the last axis, then
    fft over the leading axes, last to first.  At extent n/2 they run in
    place in the result; below it each pass transforms only the lines that
    meet the box and keeps the box rows of its axis, in `work`, a flat
    complex scratch of at least `_pass_scratch(ncomp, dim, n, cut, False)`
    elements or the list of its `_pass_buffers` views (fresh if None).  With
    `out` numpy allocates nothing.
    """
    ncomp, dim, n = len(values), values.ndim - 1, values.shape[-1]
    if out is None:
        out = np.empty((ncomp, *_box_shape(n, dim, cut)), dtype=np.complex128)
    prune = 2 * cut + 1 < n
    passes = work if isinstance(work, list) else _pass_buffers(ncomp, dim, n, cut, False, work)
    bufs = [*passes, out]
    np.fft.rfft(values, axis=-1, norm="forward", out=bufs[0])
    x = bufs[0][..., : cut + 1]
    for ax in range(dim - 1, 0, -1):
        np.fft.fft(x, axis=ax, norm="forward", out=x)
        if prune:
            dst, lines = bufs[dim - ax], (slice(None),) * ax
            for b, f in _axis_blocks(n, cut, n // 2):
                dst[lines + (b,)] = x[lines + (f,)]
            x = dst
    return out


def _irfft(
    coeffs: np.ndarray,
    n: int,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Real samples on the n-grid of the field whose box of extent cut = coeffs.shape[-1] - 1 is coeffs.

    numpy's own passes run in irfftn's order: ifft over the leading axes,
    first to last, then irfft over the last axis of all n/2 + 1 columns,
    into `out` (fresh if None).  Below extent n/2 each leading axis is
    padded to n first and only the lines that meet the box are transformed,
    the columns past the box zero for irfft.  The passes run in `work`, a
    flat complex scratch of at least `_pass_scratch(ncomp, dim, n, cut, True)`
    elements or the list of its `_pass_buffers` views (fresh if None); with
    `work` and `out` numpy allocates nothing.
    """
    ncomp, dim, cut = len(coeffs), coeffs.ndim - 1, coeffs.shape[-1] - 1
    pad = 2 * cut + 1 < n
    passes = work if isinstance(work, list) else _pass_buffers(ncomp, dim, n, cut, True, work)
    x = coeffs
    for ax in range(1, dim):
        buf = passes[ax - 1] if pad else passes[0]  # unpadded, one buffer for every pass
        lead = buf[..., : cut + 1]
        if pad:
            buf[..., cut + 1 :] = 0.0  # the last pass's columns j > cut, read by irfft
            lines = (slice(None),) * ax
            buf[lines + (slice(cut + 1, n - cut),)] = 0.0  # j = cut+1..n-cut-1, if any
            for b, f in _axis_blocks(n, cut, n // 2):
                lead[lines + (f,)] = x[lines + (b,)]
            x = lead
        np.fft.ifft(x, axis=ax, norm="forward", out=lead)
        x = lead
    return np.fft.irfft(passes[-1], n=n, axis=-1, norm="forward", out=out)


@lru_cache(maxsize=64)
def _pass_shapes(ncomp: int, dim: int, n: int, cut: int, inverse: bool) -> tuple[tuple[int, ...], ...]:
    """Shapes of a transform's pass buffers at extent cut, in their order in its scratch.

    At extent n/2 the forward needs none and the inverse one half spectrum.
    Below it the inverse pads the leading axes to n one at a time; its last
    pass keeps all n/2 + 1 columns, the ones past the box zero, for irfft
    (numpy 2.4's irfft took 1.5x as long at 2D 128^2 when it padded a
    shorter input itself, same output bits).  The forward holds the rfft
    output, then the leading axes gathered to the box one at a time (all but
    the first, which is gathered into the result).
    """
    k, m, h = cut + 1, min(2 * cut + 1, n), n // 2 + 1
    if m == n:
        return ((ncomp, *(n,) * (dim - 1), h),) if inverse else ()
    if inverse:
        return tuple((ncomp, *(n,) * a, *(m,) * (dim - 1 - a), h if a == dim - 1 else k) for a in range(1, dim))
    gathers = [(ncomp, *(n,) * (a - 1), *(m,) * (dim - a), k) for a in range(2, dim)]
    return ((ncomp, *(n,) * (dim - 1), h), *gathers)


def _pass_scratch(ncomp: int, dim: int, n: int, cut: int, inverse: bool) -> int:
    """Complex elements of the scratch that a transform of ncomp components at extent cut needs."""
    return sum(math.prod(shape) for shape in _pass_shapes(ncomp, dim, n, cut, inverse))


def _pass_buffers(ncomp: int, dim: int, n: int, cut: int, inverse: bool, work: np.ndarray | None):
    """Consecutive views of work (fresh if None), one per `_pass_shapes` entry."""
    shapes = _pass_shapes(ncomp, dim, n, cut, inverse)
    if work is None:
        work = np.empty(_pass_scratch(ncomp, dim, n, cut, inverse), dtype=np.complex128)
    views, start = [], 0
    for shape in shapes:
        views.append(work[start : start + math.prod(shape)].reshape(shape))
        start += math.prod(shape)
    return views


@lru_cache(maxsize=32)
def _mirror(n: int) -> np.ndarray:
    """Position of mode -j for each position j along one axis."""
    return -np.arange(n) % n


def _negate_leading(a: np.ndarray) -> np.ndarray:
    """Copy of a with mode j moved to -j along every spatial axis but the last."""
    neg = _mirror(a.shape[1])
    for ax in range(1, a.ndim - 1):
        a = a.take(neg, axis=ax)
    return a


def _half(coeffs: np.ndarray) -> np.ndarray:
    """rfftn half spectrum of the Hermitian part (X(k) + conj X(-k))/2 of full coefficients X.

    The Hermitian part is the real field ifftn(X).real that X stands for.
    """
    n = coeffs.shape[-1]
    out = np.empty((*coeffs.shape[:-1], n // 2 + 1), dtype=np.complex128)
    # conj X(-k) block by block: along each axis position 0 is its own
    # mirror, and positions 1, 2, ... mirror n-1, n-2, ...
    zero = (slice(0, 1), slice(0, 1))
    lead = (zero, (slice(1, None), slice(None, 0, -1)))
    last = (zero, (slice(1, None), slice(n - 1, n // 2 - 1, -1)))
    for blocks in itertools.product(*[lead] * (coeffs.ndim - 2), last):
        dst, src = zip(*blocks)
        np.conjugate(coeffs[(Ellipsis, *src)], out=out[(Ellipsis, *dst)])
    out += coeffs[..., : out.shape[-1]]
    out *= 0.5
    return out


def _full(half: np.ndarray) -> np.ndarray:
    """Exactly Hermitian full coefficient array completing an rfftn half spectrum."""
    h = half.shape[-1]
    n = 2 * (h - 1)
    out = np.empty((*half.shape[:-1], n), dtype=np.complex128)
    out[..., :h] = half
    np.conjugate(_negate_leading(half[..., h - 2 : 0 : -1]), out=out[..., h:])
    # the planes j = 0 and j = n/2 of the last axis are their own mirror images
    planes = out[..., :: n // 2]
    planes[...] = 0.5 * (planes + _negate_leading(planes).conj())
    return out


def to_spectral(f: PhysicalField) -> SpectralField:
    """Forward DFT; coefficients are mode amplitudes (forward normalization)."""
    if not np.all(np.isfinite(f.values)):
        raise InvalidFieldError("physical samples contain non-finite values")
    return SpectralField(f.grid, _rfft(f.values, f.grid.n_per_axis // 2))


def to_physical(F: SpectralField) -> PhysicalField:
    """Samples of the real field F stands for."""
    return PhysicalField(F.grid, _irfft(F.coeffs, F.grid.n_per_axis))


def partial_derivative(F: SpectralField, axis: int) -> SpectralField:
    """Componentwise d/dx_axis as the multiplier i*k_axis."""
    return SpectralField(F.grid, F.coeffs * _derivatives(F.grid, F.cut)[axis])


def gradient(F: SpectralField) -> SpectralField:
    """Gradient of a scalar field -> vector field."""
    if F.ncomp != 1:
        raise InvalidFieldError("gradient expects a scalar field")
    comps = [F.coeffs[0] * ik for ik in _derivatives(F.grid, F.cut)]
    return SpectralField(F.grid, np.stack(comps))


def divergence(F: SpectralField) -> SpectralField:
    """Divergence of a vector field -> scalar field."""
    if F.ncomp != F.grid.dim:
        raise InvalidFieldError("divergence expects a full vector field")
    out = np.zeros(F.coeffs.shape[1:], dtype=np.complex128)
    for i, ik in enumerate(_derivatives(F.grid, F.cut)):
        out += F.coeffs[i] * ik
    return SpectralField(F.grid, out[np.newaxis])


def laplacian(F: SpectralField) -> SpectralField:
    return SpectralField(F.grid, F.coeffs * (-k_squared(F.grid, F.cut)))


def _irrotational(x: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Irrotational part k (k.x)/|k|^2 of a vector's box of extent cut = x.shape[-1] - 1.

    k is the odd multipliers' wavevector, zero at each Nyquist index, so the
    projection is even in k: it keeps real fields real, and P = 1 - Q leaves
    no divergence that `divergence` can see.  The result goes to `out`
    (fresh if None), which must not overlap x; its last component holds the
    scalar (k.x)/|k|^2 until the end, so nothing else is allocated.
    """
    cut = x.shape[-1] - 1
    ks = _odd_wavenumbers(grid, cut)
    if out is None:
        out = np.empty((grid.dim, *x.shape[1:]), dtype=np.complex128)
    kdot = out[-1]
    np.multiply(ks[0], x[0], out=kdot)
    for i in range(1, grid.dim):
        np.multiply(ks[i], x[i], out=out[0])
        kdot += out[0]
    kdot *= _inv_k_squared(grid, cut)
    for i in range(grid.dim - 1):
        np.multiply(ks[i], kdot, out=out[i])
    np.multiply(ks[-1], kdot, out=kdot)
    return out


def helmholtz_project(F: SpectralField, which: str) -> SpectralField:
    """Leray/Helmholtz projection.

    which = "Q": irrotational part, coefficient (k.F(k)/|k|^2) k.
    which = "P": divergence-free complement F - QF; the k = 0 mode belongs to P.
    """
    if F.ncomp != F.grid.dim:
        raise InvalidFieldError("helmholtz_project expects a full vector field")
    if which not in ("P", "Q"):
        raise ValueError(f"which must be 'P' or 'Q', got {which!r}")
    q = _irrotational(F.coeffs, F.grid)
    if which == "Q":
        return SpectralField(F.grid, q)
    return SpectralField(F.grid, F.coeffs - q)


def _mean(grid: GridSpec) -> tuple:
    """Index of the k = 0 coefficients in a box, or in a stack of boxes, of grid."""
    return (Ellipsis, *(0,) * grid.dim)


def _mean_free(F: SpectralField) -> bool:
    """Whether F's k = 0 coefficients are 0 up to _MEAN_TOL times its largest |coefficient|."""
    return bool(np.all(np.abs(F.coeffs[_mean(F.grid)]) <= _MEAN_TOL * np.max(np.abs(F.coeffs))))


def lambda_power(F: SpectralField, sigma: float) -> SpectralField:
    """|k|^sigma multiplier; the k = 0 coefficient is always set to 0."""
    if sigma < 0 and not _mean_free(F):
        raise SingularMultiplierError("lambda_power with sigma < 0 requires a mean-zero field")
    return SpectralField(F.grid, F.coeffs * _k_power(F.grid, sigma, F.cut))


def sobolev_norm(F: SpectralField, sigma: float) -> float:
    """Homogeneous Sobolev norm: sqrt(L^d * sum_k |k|^(2 sigma) |F(k)|^2) over the full spectrum.

    At sigma = 0 this is the L2 norm of the physical samples (Plancherel).
    Negative sigma requires a mean-zero field.
    """
    if sigma < 0 and not _mean_free(F):
        raise SingularMultiplierError("negative-order norm requires a mean-zero field")
    return _norm(F.coeffs, F.grid, sigma)


def _norm(coeffs: np.ndarray, grid: GridSpec, sigma: float) -> float:
    """`sobolev_norm` of the real field whose box is `coeffs`."""
    weight = _sobolev_weight(grid, sigma, coeffs.shape[-1] - 1)
    total = float(np.sum(weight * np.sum(np.abs(coeffs) ** 2, axis=0)))
    return float(np.sqrt(grid.domain_length**grid.dim * total))


def _sample_norm(values: np.ndarray, grid: GridSpec, p: float) -> float:
    """L^p norm of real samples (ncomp, n, ...) by grid quadrature of the pointwise magnitude."""
    mag = np.sqrt(np.sum(values**2, axis=0))
    if np.isinf(p):
        return float(np.max(mag))
    cell = grid.spacing**grid.dim
    return float((np.sum(mag**p) * cell) ** (1.0 / p))


def _linf(coeffs: np.ndarray, grid: GridSpec) -> float:
    """`linf_norm` of the real field whose box is `coeffs`."""
    return _sample_norm(_irfft(coeffs, grid.n_per_axis), grid, np.inf)


def lp_norm(f: PhysicalField | SpectralField, p: float) -> float:
    """L^p norm by grid quadrature of the pointwise Euclidean magnitude."""
    if isinstance(f, SpectralField):
        f = to_physical(f)
    return _sample_norm(f.values, f.grid, p)


def linf_norm(f: PhysicalField | SpectralField) -> float:
    return lp_norm(f, np.inf)


def dealias(F: SpectralField) -> SpectralField:
    """F on the dealias box: every coefficient with any |k_j| above dealias_fraction * k_max dropped."""
    return SpectralField(F.grid, _resize(F.coeffs, F.grid, F.grid.dealias_cut))


def _product_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise product with scalar-to-vector broadcasting on component axis."""
    if a.shape[0] == b.shape[0] or a.shape[0] == 1 or b.shape[0] == 1:
        return a * b
    raise InvalidFieldError("incompatible component counts for product")


def _lead_blocks(grid: GridSpec, up: int) -> list[tuple[tuple[slice, ...], tuple[slice, ...]]]:
    """(n-grid, 2n-grid box) slices of the leading axes placing n-grid modes in the 2n grid's box of extent n/2.

    Every mode j with |j| < n/2 keeps its index; the Nyquist index n/2 goes to
    -n/2 when up is 0 and to +n/2 when up is 1.
    """
    n = grid.n_per_axis
    c = n // 2 + up
    axis = ((slice(0, c), slice(0, c)), (slice(c, n), slice(c + 1, n + 1)))
    return [tuple(zip(*blocks)) for blocks in itertools.product(axis, repeat=grid.dim - 1)]


def _padded_samples(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Samples on the 2n grid of the real field ifftn(P).real of the zero-padded coefficients P.

    P holds each n-grid mode at the same index and the Nyquist index n/2 at
    -n/2.  Below extent n/2 the box c has no Nyquist mode and is P's box on
    the 2n grid.  At n/2 the Hermitian part (P(K) + conj P(-K))/2 keeps every
    mode |j| < n/2 and halves each Nyquist mode between -n/2 (from P) and
    +n/2 (from conj P(-K)) on the leading axes; the last axis stores only
    +n/2, so P and conj P(-K) read the same array.  The inverse is pruned to
    P's box, of extent n/2 at most.
    """
    n = grid.n_per_axis
    h = n // 2 + 1
    if c.shape[-1] < h:
        return _irfft(c, 2 * n)
    big = np.zeros((c.shape[0], *_box_shape(2 * n, grid.dim, n // 2)), dtype=np.complex128)
    for up, last in ((0, slice(0, h - 1)), (1, slice(0, h))):
        for small, large in _lead_blocks(grid, up):
            big[(slice(None), *large, last)] += c[(slice(None), *small, last)]
    big *= 0.5
    return _irfft(big, 2 * n)


def _padded_half(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Half spectrum of the alias-free truncated product of two boxes.

    The factors are zero-padded to the 2n grid (`_padded_samples`),
    multiplied there and transformed once, pruned to the box of extent n/2
    that the truncation reads.  The truncation T reads each n-grid mode at
    the same 2n-grid index and the Nyquist index n/2 at -n/2; the result is
    the half spectrum of T's Hermitian part (T(k) + conj T(-k))/2, as
    `_half` takes it.
    """
    big = _rfft(_product_values(_padded_samples(a, grid), _padded_samples(b, grid)), grid.n_per_axis // 2)
    lo, hi = (np.empty((big.shape[0], *grid.spectral_shape), dtype=np.complex128) for _ in range(2))
    for up, out in ((0, lo), (1, hi)):
        for small, large in _lead_blocks(grid, up):
            out[(slice(None), *small)] = big[(slice(None), *large)]
    # lo reads a leading Nyquist index at -n/2 and hi at +n/2, so conj T(-k)
    # is hi for 0 < j < n/2; on the planes j = 0 and j = n/2, which hold
    # both k and -k, it is a conjugated mirror entry
    out = lo + hi
    out[..., :1] = lo[..., :1] + np.conj(_negate_leading(lo[..., :1]))
    out[..., -1:] = np.conj(_negate_leading(hi[..., -1:])) + hi[..., -1:]
    out *= 0.5
    return out


def padded_product(F: SpectralField, G: SpectralField) -> SpectralField:
    """Alias-free truncated product via zero-padded transforms.

    Computes the exact product on a double-resolution grid and truncates to
    the original grid's representable modes: the Galerkin-truncated product,
    with no aliasing error for any admissible inputs.  Serves as the oracle
    against which dealiased collocation products are checked.  Each factor
    is padded from its own box; the product reaches past both, so the
    result is the whole half spectrum, extent n/2.
    """
    F._check_same_grid(G)
    return SpectralField(F.grid, _padded_half(F.coeffs, G.coeffs, F.grid))


def single_mode(
    grid: GridSpec,
    index: tuple[int, ...],
    component: int = 0,
    ncomp: int | None = None,
    amplitude: float = 1.0,
    phase: str = "sin",
) -> SpectralField:
    """Field amplitude * sin(k.x) or cos(k.x) in one component, k = (2*pi/L)*index, on its box."""
    if ncomp is None:
        ncomp = 1
    coeffs = np.zeros((ncomp, *grid.shape), dtype=np.complex128)
    pos = tuple(i % grid.n_per_axis for i in index)
    neg = tuple((-i) % grid.n_per_axis for i in index)
    if phase == "sin":
        coeffs[(component, *pos)] = amplitude / 2j
        coeffs[(component, *neg)] = -amplitude / 2j
    elif phase == "cos":
        coeffs[(component, *pos)] = amplitude / 2
        coeffs[(component, *neg)] = amplitude / 2
    else:
        raise ValueError("phase must be 'sin' or 'cos'")
    cut = min(max(abs(i) for i in index), grid.n_per_axis // 2)
    return SpectralField(grid, _resize(_half(coeffs), grid, cut))


def random_band_limited(
    grid: GridSpec,
    rng: np.random.Generator,
    ncomp: int = 1,
    kmin: int = 1,
    kmax: int | None = None,
    decay: float = 2.0,
    amplitude: float = 1.0,
    divergence_free: bool = False,
) -> SpectralField:
    """Seeded random mean-zero field supported on kmin <= |j| <= kmax.

    Complex Gaussian coefficients with an isotropic |j|^-decay envelope,
    Hermitian-symmetrized, optionally Leray-projected, and rescaled so the
    max pointwise magnitude equals `amplitude`.  On its support, the box of
    extent min(kmax, n/2); kmax defaults to `grid.dealias_cut`.
    """
    box = _random_half(grid, rng, ncomp, kmin, kmax, decay, amplitude, divergence_free)
    return SpectralField(grid, box)


def _random_half(
    grid: GridSpec,
    rng: np.random.Generator,
    ncomp: int = 1,
    kmin: int = 1,
    kmax: int | None = None,
    decay: float = 2.0,
    amplitude: float = 1.0,
    divergence_free: bool = False,
) -> np.ndarray:
    """Box of `random_band_limited`, drawn as full-grid normals, halved and gathered to its support."""
    if kmax is None:
        kmax = grid.dealias_cut
    cut = max(0, min(int(kmax), grid.n_per_axis // 2))
    m = _index_magnitude(grid)
    m = np.concatenate([m, m[..., -2:0:-1]], axis=-1)  # full grid: |j| is even in j_last
    band = (m >= kmin) & (m <= kmax)
    envelope = np.zeros_like(m)
    envelope[band] = m[band] ** (-decay)
    shape = (ncomp, *grid.shape)
    raw = np.empty(shape, dtype=np.complex128)
    raw.real = rng.normal(size=shape)
    raw.imag = rng.normal(size=shape)
    box = _resize(_half(raw * envelope), grid, cut)
    box[_mean(grid)] = 0.0
    if divergence_free:
        box -= _irrotational(box, grid)
    peak = _linf(box, grid)
    if peak > 0:
        box *= amplitude / peak
    return box


def _torus_distance_sq(grid: GridSpec, center: tuple[float, ...]) -> np.ndarray:
    """Squared periodic distance from center at every grid point."""
    L = grid.domain_length
    d2 = np.zeros(grid.shape)
    for x, c in zip(grid.meshgrid(), center):
        dx = np.abs(x - c)
        dx = np.minimum(dx, L - dx)
        d2 = d2 + dx * dx
    return d2


def gaussian_bump(
    grid: GridSpec,
    sigma: float,
    center: tuple[float, ...] | None = None,
    amplitude: float = 1.0,
) -> PhysicalField:
    """Scalar periodic Gaussian bump exp(-dist(x, center)^2 / (2 sigma^2))."""
    if center is None:
        center = (grid.domain_length / 2.0,) * grid.dim
    d2 = _torus_distance_sq(grid, center)
    return PhysicalField(grid, amplitude * np.exp(-d2 / (2.0 * sigma * sigma)))


# ---------------------------------------------------------------------------
# binary snapshot format
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIIIddB")


def write_snapshot(path, field: SpectralField | PhysicalField, time: float = 0.0):
    """Write a field snapshot: HNSF header then component-major f64 payload.

    A spectral payload is the full Hermitian coefficient array (n^dim complex
    values per component) of the field lifted to extent n/2, the layout of
    format version 1.
    """
    is_spectral = isinstance(field, SpectralField)
    grid = field.grid
    header = _HEADER.pack(
        SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        grid.dim,
        grid.n_per_axis,
        grid.domain_length,
        time,
        1 if is_spectral else 0,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        if is_spectral:
            half = _resize(field.coeffs, grid, grid.n_per_axis // 2)
            fh.write(_full(half).astype("<c16").tobytes())
        else:
            data = np.ascontiguousarray(field.values, dtype=np.float64)
            fh.write(data.astype("<f8").tobytes())


def read_snapshot(path) -> tuple[SpectralField | PhysicalField, float]:
    """Read a snapshot written by write_snapshot.

    A spectral payload is read as the half spectrum of its Hermitian part.
    A header shorter than its 33 bytes, or a payload that is not exactly 1 or
    dim whole components, raises InvalidFieldError.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise InvalidFieldError(
                f"snapshot header is {len(raw)} bytes, expected {_HEADER.size}"
            )
        magic, version, dim, n, L, time, is_spectral = _HEADER.unpack(raw)
        if magic != SNAPSHOT_MAGIC:
            raise InvalidFieldError(f"bad snapshot magic {magic!r}")
        if version != SNAPSHOT_VERSION:
            raise InvalidFieldError(f"unsupported snapshot version {version}")
        grid = GridSpec(dim=dim, n_per_axis=n, domain_length=L)
        payload = fh.read()
    dtype = "<c16" if is_spectral else "<f8"
    ncomp, rest = divmod(len(payload), grid.npoints * np.dtype(dtype).itemsize)
    if rest or ncomp not in (1, dim):
        raise InvalidFieldError(
            f"snapshot payload of {len(payload)} bytes is not 1 or {dim} components "
            f"of {grid.npoints} {dtype} values"
        )
    arr = np.frombuffer(payload, dtype=dtype).reshape((ncomp, *grid.shape))
    if is_spectral:
        return SpectralField(grid, _half(arr.astype(np.complex128))), time
    return PhysicalField(grid, arr.astype(np.float64)), time
