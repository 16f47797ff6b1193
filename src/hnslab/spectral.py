"""Spectral representation of periodic vector fields and Fourier-multiplier operators.

Fields live on a d-dimensional torus [0, L)^d (d = 2 or 3) sampled on a uniform
grid with the same resolution per axis.  A `SpectralField` stores, per
component, the rfftn half spectrum of a real field with *forward*
normalization: the coefficient at wavevector k is the amplitude of exp(i k.x),
kept for the last-axis indices j = 0..n/2 only.  The modes j = n/2+1..n-1 are
the complex conjugates of their mirror images -k and are not stored, so a
field always stands for a real field.  All differential operators are exact
diagonal multipliers in this basis, and every operator, multiplier table and
norm exists once, on this half grid.

Every transform of the package is one of two real-to-complex helpers,
`_rfft` and `_irfft`.  Sobolev norms weight each stored mode by its Hermitian
multiplicity: 1 on the self-conjugate planes j = 0 and j = n/2 of the last
axis, which hold both k and -k, and 2 elsewhere.  Odd multipliers (the
derivatives and the Helmholtz projection) use the wavevector that is zero at
each axis's Nyquist index n/2, where the modes j and -j share one coefficient:
an odd multiplier has no Hermitian part there, and zeroing it keeps every
result a real field.

Full coefficient arrays appear only at the edges: `_full` completes a half
spectrum to its exactly Hermitian full array and `_half` takes the half
spectrum of a full array's Hermitian part.  `write_snapshot` writes the full
array and `read_snapshot` keeps the half spectrum of it, so the HNSF layout
(version 1) is unchanged; `random_band_limited` draws its normals on the full
grid, so every seeded sample is what it was.

The private array helpers carry the hot paths that build no field:
`_random_half` draws `random_band_limited`'s samples, `_padded_half` forms
`padded_product` from one padded inverse transform per factor and one forward
transform of the product, `_irrotational` is the Q projection and `_norm` is
`sobolev_norm`.  `_rfft`, `_irfft` and `_irrotational` take an `out=` array,
so the stepper's workspace (see `solvers`) receives their results without a
fresh allocation; `np.fft` accepts `out=` since numpy 2.0.

Conventions baked in here and relied on everywhere else:

* wavenumber along an axis is (2*pi/L) * j with integer j in [-n/2, n/2)
* the k = 0 mode belongs to the divergence-free (P) part of the Helmholtz
  split and is excluded from every |k|^sigma multiplier
* homogeneous Sobolev norms are mean-zero Plancherel sums scaled to agree
  with the physical-space L2 norm at sigma = 0
"""

from __future__ import annotations

import itertools
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
    def k_max_dealiased(self) -> float:
        """Largest per-axis wavenumber surviving `dealias`."""
        cut = int(np.floor(self.dealias_fraction * (self.n_per_axis // 2)))
        return self.k_fundamental * cut

    def axes(self) -> tuple[np.ndarray, ...]:
        """Physical sample coordinates along each axis."""
        x = np.arange(self.n_per_axis) * self.spacing
        return (x,) * self.dim

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*self.axes(), indexing="ij")


# ---------------------------------------------------------------------------
# multiplier tables, all on the half grid
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _index_vectors(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Integer mode indices j per axis, broadcastable to grid.spectral_shape.

    The leading axes hold 0, 1, ..., n/2-1, -n/2, ..., -1; the last axis
    holds their first n/2+1 entries, -n/2 at its Nyquist index n/2.
    """
    n = grid.n_per_axis
    j = np.fft.fftfreq(n, d=1.0 / n)
    out = []
    for ax, size in enumerate(grid.spectral_shape):
        shape = [1] * grid.dim
        shape[ax] = size
        out.append(j[:size].reshape(shape))
    return tuple(out)


@lru_cache(maxsize=32)
def _index_magnitude(grid: GridSpec) -> np.ndarray:
    """|j| = Euclidean norm of the integer index vector."""
    m2 = np.zeros(grid.spectral_shape)
    for j in _index_vectors(grid):
        m2 = m2 + j * j
    return np.sqrt(m2)


def wavenumbers(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Physical wavenumber arrays k_j = (2*pi/L)*j, broadcastable per axis."""
    return tuple(grid.k_fundamental * j for j in _index_vectors(grid))


@lru_cache(maxsize=32)
def _odd_wavenumbers(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """`wavenumbers` with 0 at each axis's Nyquist index: the wavevector of the odd multipliers."""
    ks = wavenumbers(grid)
    for k in ks:
        k.flat[grid.n_per_axis // 2] = 0.0
    return ks


@lru_cache(maxsize=32)
def _derivatives(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Multipliers i k_axis of d/dx_axis, broadcastable per axis, zero at the Nyquist index.

    There the modes j and -j share one coefficient, so i k X of a real
    field's X has no Hermitian part and the real field ifftn(i k X).real
    drops it; the multiplier drops it too.
    """
    return tuple(1j * k for k in _odd_wavenumbers(grid))


@lru_cache(maxsize=32)
def k_squared(grid: GridSpec) -> np.ndarray:
    return (grid.k_fundamental * _index_magnitude(grid)) ** 2


@lru_cache(maxsize=32)
def _inv_k_squared(grid: GridSpec) -> np.ndarray:
    """1/|k|^2 of the odd multipliers' wavevector, 0 where it vanishes (read-only: shared).

    Built from the integer indices as `k_squared` is, so off the Nyquist
    modes it is exactly 1/k_squared.
    """
    nyquist = -(grid.n_per_axis // 2)
    m2 = sum(np.where(j == nyquist, 0.0, j) ** 2 for j in _index_vectors(grid))
    k2 = (grid.k_fundamental * np.sqrt(m2)) ** 2
    inv = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)
    inv.flags.writeable = False
    return inv


@lru_cache(maxsize=32)
def k_abs(grid: GridSpec) -> np.ndarray:
    return grid.k_fundamental * _index_magnitude(grid)


@lru_cache(maxsize=32)
def dealias_mask(grid: GridSpec) -> np.ndarray:
    """Boolean mask keeping modes with |k_j| <= dealias_fraction * k_max on every axis."""
    cut = np.floor(grid.dealias_fraction * (grid.n_per_axis // 2))
    mask = np.ones(grid.spectral_shape, dtype=bool)
    for j in _index_vectors(grid):
        mask &= np.abs(j) <= cut
    return mask


@lru_cache(maxsize=32)
def _sobolev_weight(grid: GridSpec, sigma: float) -> np.ndarray:
    """|k|^(2 sigma) times each stored mode's Hermitian multiplicity (read-only: shared).

    |k|^(2 sigma) is 0 at k = 0 unless sigma = 0.  A coefficient off the
    self-conjugate planes j = 0 and j = n/2 of the last axis stands for
    itself and its mirror image -k, so it counts twice in the Plancherel sum.
    """
    ka = k_abs(grid)
    if sigma == 0:
        w = np.ones_like(ka)
    else:
        w = np.zeros_like(ka)
        nonzero = ka > 0
        w[nonzero] = ka[nonzero] ** (2.0 * sigma)
    n = grid.n_per_axis
    multiplicity = np.full(n // 2 + 1, 2.0)
    multiplicity[[0, n // 2]] = 1.0
    w = w * multiplicity
    w.flags.writeable = False
    return w


class SpectralField:
    """rfftn half spectrum of a real field on the torus.

    `coeffs` has shape (ncomp, *grid.spectral_shape) with ncomp 1 (scalar) or
    dim (vector).  Instances are treated as immutable values: operations
    return new fields and never mutate their inputs.
    """

    __slots__ = ("grid", "coeffs", "is_mean_zero")

    def __init__(self, grid: GridSpec, coeffs: np.ndarray, is_mean_zero: bool | None = None):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim == grid.dim:
            coeffs = coeffs[np.newaxis]
        if coeffs.shape[1:] != grid.spectral_shape or coeffs.shape[0] not in (1, grid.dim):
            raise InvalidFieldError(
                f"coefficient shape {coeffs.shape} incompatible with grid half spectrum "
                f"{grid.spectral_shape}"
            )
        self.grid = grid
        self.coeffs = coeffs
        zero = (slice(None), *(0,) * grid.dim)
        if is_mean_zero is None:
            scale = np.max(np.abs(coeffs)) or 1.0
            is_mean_zero = bool(np.all(np.abs(coeffs[zero]) <= _MEAN_TOL * scale))
        if is_mean_zero:
            coeffs[zero] = 0.0
        self.is_mean_zero = is_mean_zero

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[0]

    @property
    def is_scalar(self) -> bool:
        return self.ncomp == 1

    @classmethod
    def zeros(cls, grid: GridSpec, ncomp: int = 1) -> "SpectralField":
        return cls(grid, np.zeros((ncomp, *grid.spectral_shape), dtype=np.complex128), True)

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy(), self.is_mean_zero)

    def component(self, i: int) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs[i : i + 1].copy(), self.is_mean_zero)

    def remove_mean(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy(), is_mean_zero=True)

    def _check_same_grid(self, other: "SpectralField"):
        if self.grid != other.grid:
            raise InvalidFieldError("grid mismatch")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        if self.ncomp != other.ncomp:
            raise InvalidFieldError("component count mismatch")
        return SpectralField(
            self.grid, self.coeffs + other.coeffs, self.is_mean_zero and other.is_mean_zero
        )

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        if self.ncomp != other.ncomp:
            raise InvalidFieldError("component count mismatch")
        return SpectralField(
            self.grid, self.coeffs - other.coeffs, self.is_mean_zero and other.is_mean_zero
        )

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar, self.is_mean_zero)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs, self.is_mean_zero)


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


def _rfft(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """rfftn half spectrum (last axis j = 0..n/2) of real samples (ncomp, n, ...).

    With `out` the spectrum is written there and numpy allocates nothing.
    """
    return np.fft.rfftn(values, axes=tuple(range(1, values.ndim)), norm="forward", out=out)


def _irfft(half: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Real samples of the field whose rfftn half spectrum is `half`.

    With `out` the samples are written there; numpy still allocates its
    complex intermediates of the leading axes (dim - 1 of them, the size of
    `half`, two alive at once in 3D).
    """
    n = half.shape[1]
    axes = tuple(range(1, half.ndim))
    return np.fft.irfftn(half, s=(n,) * len(axes), axes=axes, norm="forward", out=out)


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
    return SpectralField(f.grid, _rfft(f.values))


def to_physical(F: SpectralField) -> PhysicalField:
    """Samples of the real field F stands for."""
    return PhysicalField(F.grid, _irfft(F.coeffs))


def partial_derivative(F: SpectralField, axis: int) -> SpectralField:
    """Componentwise d/dx_axis as the multiplier i*k_axis."""
    return SpectralField(F.grid, F.coeffs * _derivatives(F.grid)[axis], is_mean_zero=True)


def gradient(F: SpectralField) -> SpectralField:
    """Gradient of a scalar field -> vector field."""
    if not F.is_scalar:
        raise InvalidFieldError("gradient expects a scalar field")
    comps = [F.coeffs[0] * ik for ik in _derivatives(F.grid)]
    return SpectralField(F.grid, np.stack(comps), is_mean_zero=True)


def divergence(F: SpectralField) -> SpectralField:
    """Divergence of a vector field -> scalar field."""
    if F.ncomp != F.grid.dim:
        raise InvalidFieldError("divergence expects a full vector field")
    out = np.zeros(F.grid.spectral_shape, dtype=np.complex128)
    for i, ik in enumerate(_derivatives(F.grid)):
        out += F.coeffs[i] * ik
    return SpectralField(F.grid, out[np.newaxis], is_mean_zero=True)


def laplacian(F: SpectralField) -> SpectralField:
    return SpectralField(F.grid, F.coeffs * (-k_squared(F.grid)), is_mean_zero=True)


def _irrotational(x: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Irrotational part k (k.x)/|k|^2 of a vector's coefficients.

    k is the odd multipliers' wavevector, zero at each Nyquist index, so the
    projection is even in k: it keeps real fields real, and P = 1 - Q leaves
    no divergence that `divergence` can see.  The result goes to `out`
    (fresh if None), which must not overlap x; its last component holds the
    scalar (k.x)/|k|^2 until the end, so nothing else is allocated.
    """
    ks = _odd_wavenumbers(grid)
    if out is None:
        out = np.empty((grid.dim, *x.shape[1:]), dtype=np.complex128)
    kdot = out[-1]
    np.multiply(ks[0], x[0], out=kdot)
    for i in range(1, grid.dim):
        np.multiply(ks[i], x[i], out=out[0])
        kdot += out[0]
    kdot *= _inv_k_squared(grid)
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
        return SpectralField(F.grid, q, is_mean_zero=True)
    return SpectralField(F.grid, F.coeffs - q, is_mean_zero=F.is_mean_zero)


def lambda_power(F: SpectralField, sigma: float) -> SpectralField:
    """|k|^sigma multiplier; the k = 0 coefficient is always set to 0."""
    if sigma == 0:
        return F.remove_mean()
    if sigma < 0 and not F.is_mean_zero:
        raise SingularMultiplierError(
            "lambda_power with sigma < 0 requires a mean-zero field"
        )
    ka = k_abs(F.grid)
    mult = np.zeros_like(ka)
    nonzero = ka > 0
    mult[nonzero] = ka[nonzero] ** sigma
    return SpectralField(F.grid, F.coeffs * mult, is_mean_zero=True)


def sobolev_norm(F: SpectralField, sigma: float) -> float:
    """Homogeneous Sobolev norm: sqrt(L^d * sum_k |k|^(2 sigma) |F(k)|^2) over the full spectrum.

    At sigma = 0 this is the L2 norm of the physical samples (Plancherel).
    Negative sigma requires a mean-zero field.
    """
    if sigma < 0 and not F.is_mean_zero:
        raise SingularMultiplierError("negative-order norm requires a mean-zero field")
    return _norm(F.coeffs, F.grid, sigma)


def _norm(coeffs: np.ndarray, grid: GridSpec, sigma: float) -> float:
    """`sobolev_norm` of the real field whose half spectrum is `coeffs`."""
    total = float(np.sum(_sobolev_weight(grid, sigma) * np.sum(np.abs(coeffs) ** 2, axis=0)))
    return float(np.sqrt(grid.domain_length**grid.dim * total))


def _sample_norm(values: np.ndarray, grid: GridSpec, p: float) -> float:
    """L^p norm of real samples (ncomp, n, ...) by grid quadrature of the pointwise magnitude."""
    mag = np.sqrt(np.sum(values**2, axis=0))
    if np.isinf(p):
        return float(np.max(mag))
    cell = grid.spacing**grid.dim
    return float((np.sum(mag**p) * cell) ** (1.0 / p))


def _linf(coeffs: np.ndarray, grid: GridSpec) -> float:
    """`linf_norm` of the real field whose half spectrum is `coeffs`."""
    return _sample_norm(_irfft(coeffs), grid, np.inf)


def lp_norm(f: PhysicalField | SpectralField, p: float) -> float:
    """L^p norm by grid quadrature of the pointwise Euclidean magnitude."""
    if isinstance(f, SpectralField):
        f = to_physical(f)
    return _sample_norm(f.values, f.grid, p)


def linf_norm(f: PhysicalField | SpectralField) -> float:
    return lp_norm(f, np.inf)


def dealias(F: SpectralField) -> SpectralField:
    """Zero every coefficient with any |k_j| above dealias_fraction * k_max."""
    return SpectralField(F.grid, F.coeffs * dealias_mask(F.grid), F.is_mean_zero)


def _product_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise product with scalar-to-vector broadcasting on component axis."""
    if a.shape[0] == b.shape[0] or a.shape[0] == 1 or b.shape[0] == 1:
        return a * b
    raise InvalidFieldError("incompatible component counts for product")


def _lead_blocks(grid: GridSpec, up: int) -> list[tuple[tuple[slice, ...], tuple[slice, ...]]]:
    """(n-grid, 2n-grid) slices of the leading axes placing n-grid modes on the 2n grid.

    Every mode j with |j| < n/2 keeps its index; the Nyquist index n/2 goes to
    -n/2 when up is 0 and to +n/2 when up is 1.
    """
    n = grid.n_per_axis
    c = n // 2 + up
    axis = ((slice(0, c), slice(0, c)), (slice(c, n), slice(n + c, 2 * n)))
    return [tuple(zip(*blocks)) for blocks in itertools.product(axis, repeat=grid.dim - 1)]


def _padded_samples(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Samples on the 2n grid of the real field ifftn(P).real of the zero-padded coefficients P.

    P holds each n-grid mode at the same index and the Nyquist index n/2 at
    -n/2.  Its Hermitian part (P(K) + conj P(-K))/2 therefore keeps every
    mode |j| < n/2 and halves each Nyquist mode between -n/2 (from P) and
    +n/2 (from conj P(-K)) on the leading axes; the last axis stores only
    +n/2.  For a half spectrum c, P and conj P(-K) read the same array.
    """
    n = grid.n_per_axis
    h = n // 2 + 1
    big = np.zeros((c.shape[0], *(2 * n,) * (grid.dim - 1), n + 1), dtype=np.complex128)
    for up, last in ((0, slice(0, h - 1)), (1, slice(0, h))):
        for small, large in _lead_blocks(grid, up):
            big[(slice(None), *large, last)] += c[(slice(None), *small, last)]
    big *= 0.5
    return _irfft(big)


def _padded_half(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Half spectrum of the alias-free truncated product of two half spectra.

    The factors are zero-padded to the 2n grid (`_padded_samples`),
    multiplied there and transformed once.  The truncation T reads each
    n-grid mode at the same 2n-grid index and the Nyquist index n/2 at -n/2;
    the result is the half spectrum of T's Hermitian part (T(k) + conj T(-k))/2,
    as `_half` takes it.
    """
    big = _rfft(_product_values(_padded_samples(a, grid), _padded_samples(b, grid)))
    h = grid.n_per_axis // 2 + 1
    lo, hi = (np.empty((big.shape[0], *grid.spectral_shape), dtype=np.complex128) for _ in range(2))
    for up, out in ((0, lo), (1, hi)):
        for small, large in _lead_blocks(grid, up):
            out[(slice(None), *small)] = big[(slice(None), *large, slice(0, h))]
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
    against which dealiased collocation products are checked.
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
    """Field amplitude * sin(k.x) or cos(k.x) in one component; k = (2*pi/L)*index."""
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
    return SpectralField(grid, _half(coeffs))


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
    max pointwise magnitude equals `amplitude`.
    """
    half = _random_half(grid, rng, ncomp, kmin, kmax, decay, amplitude, divergence_free)
    return SpectralField(grid, half, is_mean_zero=True)


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
    """Half spectrum of `random_band_limited`, drawn as full-grid normals and halved."""
    if kmax is None:
        kmax = int(np.floor(grid.dealias_fraction * (grid.n_per_axis // 2)))
    m = _index_magnitude(grid)
    m = np.concatenate([m, m[..., -2:0:-1]], axis=-1)  # full grid: |j| is even in j_last
    band = (m >= kmin) & (m <= kmax)
    envelope = np.zeros_like(m)
    envelope[band] = m[band] ** (-decay)
    shape = (ncomp, *grid.shape)
    raw = np.empty(shape, dtype=np.complex128)
    raw.real = rng.normal(size=shape)
    raw.imag = rng.normal(size=shape)
    half = _half(raw * envelope)
    half[(slice(None), *(0,) * grid.dim)] = 0.0
    if divergence_free:
        half -= _irrotational(half, grid)
    peak = _linf(half, grid)
    if peak > 0:
        half *= amplitude / peak
    return half


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
    values per component), the layout of format version 1.
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
            fh.write(_full(field.coeffs).astype("<c16").tobytes())
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
