"""Spectral representation of periodic vector fields and Fourier-multiplier operators.

Fields live on a d-dimensional torus [0, L)^d (d = 2 or 3) sampled on a uniform
grid with the same resolution per axis.  The spectral representation stores the
full complex FFT coefficient array per component with *forward* normalization:
the coefficient at wavevector k is the amplitude of exp(i k.x), so single-mode
examples have analytic coefficients.  All differential operators are exact
diagonal multipliers in this basis.

Every transform of the package is one of two real-to-complex helpers,
`_rfft` and `_irfft`, on the rfftn half spectrum (last axis j = 0..n/2).
`_full` completes a half spectrum to the exactly Hermitian full array;
`_half` takes the half spectrum of an array's Hermitian part, which is what
the real field ifftn(X).real of any coefficient array X depends on.

The private half-spectrum helpers carry the hot paths that never need a
full array: `_random_half` draws `random_band_limited`'s samples,
`_padded_half` forms `padded_product` from one padded inverse transform per
factor and one forward transform of the product, `_q_half` is the
irrotational projection and `_half_norm` is `sobolev_norm`, weighting each
half-spectrum mode by its Hermitian multiplicity (1 on the planes j = 0 and
j = n/2 of the last axis, 2 elsewhere).  The public functions are these
helpers wrapped in `_full` and `SpectralField`.

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
    "spectral_product",
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


@lru_cache(maxsize=32)
def _index_vectors(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Integer mode indices j per axis, broadcastable to grid.shape."""
    n = grid.n_per_axis
    j = np.fft.fftfreq(n, d=1.0 / n)  # 0, 1, ..., n/2-1, -n/2, ..., -1
    out = []
    for ax in range(grid.dim):
        shape = [1] * grid.dim
        shape[ax] = n
        out.append(j.reshape(shape))
    return tuple(out)


@lru_cache(maxsize=32)
def _index_magnitude(grid: GridSpec) -> np.ndarray:
    """|j| = Euclidean norm of the integer index vector, full grid shape."""
    js = _index_vectors(grid)
    m2 = np.zeros(grid.shape)
    for j in js:
        m2 = m2 + j * j
    return np.sqrt(m2)


def wavenumbers(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Physical wavenumber arrays k_j = (2*pi/L)*j, broadcastable per axis."""
    return tuple(grid.k_fundamental * j for j in _index_vectors(grid))


@lru_cache(maxsize=32)
def k_squared(grid: GridSpec) -> np.ndarray:
    return (grid.k_fundamental * _index_magnitude(grid)) ** 2


@lru_cache(maxsize=32)
def _inv_k_squared(grid: GridSpec) -> np.ndarray:
    """1/|k|^2, with 0 at k = 0 (read-only: the array is shared)."""
    k2 = k_squared(grid)
    inv = np.zeros_like(k2)
    nonzero = k2 > 0
    inv[nonzero] = 1.0 / k2[nonzero]
    inv.flags.writeable = False
    return inv


@lru_cache(maxsize=32)
def k_abs(grid: GridSpec) -> np.ndarray:
    return grid.k_fundamental * _index_magnitude(grid)


@lru_cache(maxsize=32)
def dealias_mask(grid: GridSpec) -> np.ndarray:
    """Boolean mask keeping modes with |k_j| <= dealias_fraction * k_max on every axis."""
    cut = np.floor(grid.dealias_fraction * (grid.n_per_axis // 2))
    mask = np.ones(grid.shape, dtype=bool)
    for j in _index_vectors(grid):
        mask &= np.abs(j) <= cut
    return mask


class SpectralField:
    """Complex Fourier coefficients of a real field on the torus.

    `coeffs` has shape (ncomp, n, n[, n]) with ncomp 1 (scalar) or dim
    (vector).  Instances are treated as immutable values: operations return
    new fields and never mutate their inputs.
    """

    __slots__ = ("grid", "coeffs", "is_mean_zero")

    def __init__(self, grid: GridSpec, coeffs: np.ndarray, is_mean_zero: bool | None = None):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim == grid.dim:
            coeffs = coeffs[np.newaxis]
        if coeffs.shape[1:] != grid.shape or coeffs.shape[0] not in (1, grid.dim):
            raise InvalidFieldError(
                f"coefficient shape {coeffs.shape} incompatible with grid {grid.shape}"
            )
        self.grid = grid
        self.coeffs = coeffs
        if is_mean_zero is None:
            zero = (0,) * grid.dim
            scale = np.max(np.abs(coeffs)) or 1.0
            is_mean_zero = bool(np.all(np.abs(coeffs[(slice(None), *zero)]) <= _MEAN_TOL * scale))
        if is_mean_zero:
            zero = (0,) * grid.dim
            coeffs[(slice(None), *zero)] = 0.0
        self.is_mean_zero = is_mean_zero

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[0]

    @property
    def is_scalar(self) -> bool:
        return self.ncomp == 1

    @classmethod
    def zeros(cls, grid: GridSpec, ncomp: int = 1) -> "SpectralField":
        return cls(grid, np.zeros((ncomp, *grid.shape), dtype=np.complex128), is_mean_zero=True)

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy(), self.is_mean_zero)

    def component(self, i: int) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs[i : i + 1].copy(), self.is_mean_zero)

    def mean_values(self) -> np.ndarray:
        """Per-component mean of the physical field (k = 0 coefficients)."""
        zero = (0,) * self.grid.dim
        return self.coeffs[(slice(None), *zero)].copy()

    def remove_mean(self) -> "SpectralField":
        out = self.coeffs.copy()
        zero = (0,) * self.grid.dim
        out[(slice(None), *zero)] = 0.0
        return SpectralField(self.grid, out, is_mean_zero=True)

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

    def multiplied(self, multiplier: np.ndarray, is_mean_zero: bool | None = None) -> "SpectralField":
        """Apply a real diagonal Fourier multiplier to every component."""
        return SpectralField(self.grid, self.coeffs * multiplier, is_mean_zero)


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


def _rfft(values: np.ndarray) -> np.ndarray:
    """rfftn half spectrum (last axis j = 0..n/2) of real samples (ncomp, n, ...)."""
    return np.fft.rfftn(values, axes=tuple(range(1, values.ndim)), norm="forward")


def _irfft(half: np.ndarray) -> np.ndarray:
    """Real samples of the Hermitian coefficients whose rfftn half spectrum is `half`."""
    n = half.shape[1]
    axes = tuple(range(1, half.ndim))
    return np.fft.irfftn(half, s=(n,) * len(axes), axes=axes, norm="forward")


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


def _conj_mirror(coeffs: np.ndarray) -> np.ndarray:
    """conj X(-k) of full coefficients X on the rfftn half grid (last axis j = 0..n/2)."""
    n = coeffs.shape[-1]
    out = np.empty((*coeffs.shape[:-1], n // 2 + 1), dtype=np.complex128)
    # block by block: along each axis position 0 is its own mirror, and
    # positions 1, 2, ... mirror n-1, n-2, ...
    zero = (slice(0, 1), slice(0, 1))
    lead = (zero, (slice(1, None), slice(None, 0, -1)))
    last = (zero, (slice(1, None), slice(n - 1, n // 2 - 1, -1)))
    for blocks in itertools.product(*[lead] * (coeffs.ndim - 2), last):
        dst, src = zip(*blocks)
        np.conjugate(coeffs[(Ellipsis, *src)], out=out[(Ellipsis, *dst)])
    return out


def _half(coeffs: np.ndarray) -> np.ndarray:
    """rfftn half spectrum of the Hermitian part (X(k) + conj X(-k))/2 of full coefficients.

    The Hermitian part is the real field ifftn(X).real that X stands for.  A
    derivative along any axis but the last of a field with Nyquist content is
    not Hermitian, and the plain slice X[..., :n/2+1] would misread it.
    """
    out = _conj_mirror(coeffs)
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


def _on_half(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Contiguous copy of a full-grid multiplier on the rfftn half grid (last axis j = 0..n/2)."""
    return np.ascontiguousarray(a[..., : grid.n_per_axis // 2 + 1])


@lru_cache(maxsize=32)
def _half_wavenumbers(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """`wavenumbers` on the half grid: only the last axis is cut to its n/2+1 entries."""
    return tuple(_on_half(k, grid) for k in wavenumbers(grid))


@lru_cache(maxsize=32)
def _half_inv_k_squared(grid: GridSpec) -> np.ndarray:
    """`_inv_k_squared` on the half grid (read-only: the array is shared)."""
    inv = _on_half(_inv_k_squared(grid), grid)
    inv.flags.writeable = False
    return inv


@lru_cache(maxsize=32)
def _half_dealias_mask(grid: GridSpec) -> np.ndarray:
    """`dealias_mask` on the half grid."""
    return _on_half(dealias_mask(grid), grid)


@lru_cache(maxsize=32)
def _half_derivatives(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Multipliers i k_axis on the half spectrum, broadcastable per axis.

    The odd multiplier is zero at the Nyquist index, where modes j and -j
    share one coefficient: there i k X of a real field's X has no Hermitian
    part, so ifftn(i k X).real drops it too.
    """
    h = grid.n_per_axis // 2 + 1
    out = []
    for k in _half_wavenumbers(grid):
        ik = 1j * k
        ik.flat[h - 1] = 0.0  # the Nyquist index n/2
        out.append(ik)
    return tuple(out)


def _q_half(x: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Irrotational part k (k.x)/|k|^2 of a half spectrum, as `helmholtz_project`'s Q."""
    ks = _half_wavenumbers(grid)
    kdot = ks[0] * x[0]
    for i in range(1, grid.dim):
        kdot += ks[i] * x[i]
    kdot *= _half_inv_k_squared(grid)
    return np.stack([k * kdot for k in ks])


def to_spectral(f: PhysicalField) -> SpectralField:
    """Forward DFT; coefficients are mode amplitudes (forward normalization)."""
    if not np.all(np.isfinite(f.values)):
        raise InvalidFieldError("physical samples contain non-finite values")
    return SpectralField(f.grid, _full(_rfft(f.values)))


def to_physical(F: SpectralField) -> PhysicalField:
    """Samples of the real field F stands for, ifftn(F).real."""
    return PhysicalField(F.grid, _irfft(_half(F.coeffs)))


def partial_derivative(F: SpectralField, axis: int) -> SpectralField:
    """Componentwise d/dx_axis as the multiplier i*k_axis."""
    k = wavenumbers(F.grid)[axis]
    return SpectralField(F.grid, F.coeffs * (1j * k), is_mean_zero=True)


def gradient(F: SpectralField) -> SpectralField:
    """Gradient of a scalar field -> vector field."""
    if not F.is_scalar:
        raise InvalidFieldError("gradient expects a scalar field")
    ks = wavenumbers(F.grid)
    comps = [F.coeffs[0] * (1j * k) for k in ks]
    return SpectralField(F.grid, np.stack(comps), is_mean_zero=True)


def divergence(F: SpectralField) -> SpectralField:
    """Divergence of a vector field -> scalar field."""
    if F.ncomp != F.grid.dim:
        raise InvalidFieldError("divergence expects a full vector field")
    ks = wavenumbers(F.grid)
    out = np.zeros(F.grid.shape, dtype=np.complex128)
    for i, k in enumerate(ks):
        out += F.coeffs[i] * (1j * k)
    return SpectralField(F.grid, out[np.newaxis], is_mean_zero=True)


def laplacian(F: SpectralField) -> SpectralField:
    return SpectralField(F.grid, F.coeffs * (-k_squared(F.grid)), is_mean_zero=True)


def helmholtz_project(F: SpectralField, which: str) -> SpectralField:
    """Leray/Helmholtz projection.

    which = "Q": irrotational part, coefficient (k.F(k)/|k|^2) k.
    which = "P": divergence-free complement F - QF; the k = 0 mode belongs to P.
    """
    if F.ncomp != F.grid.dim:
        raise InvalidFieldError("helmholtz_project expects a full vector field")
    if which not in ("P", "Q"):
        raise ValueError(f"which must be 'P' or 'Q', got {which!r}")
    ks = wavenumbers(F.grid)
    kdotF = np.zeros(F.grid.shape, dtype=np.complex128)
    for i, k in enumerate(ks):
        kdotF += k * F.coeffs[i]
    kdotF *= _inv_k_squared(F.grid)
    q = np.stack([k * kdotF for k in ks])
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


@lru_cache(maxsize=32)
def _sobolev_weight(grid: GridSpec, sigma: float) -> np.ndarray:
    """|k|^(2 sigma), with 0 at k = 0 unless sigma = 0 (read-only: the array is shared)."""
    ka = k_abs(grid)
    if sigma == 0:
        w = np.ones_like(ka)
    else:
        w = np.zeros_like(ka)
        nonzero = ka > 0
        w[nonzero] = ka[nonzero] ** (2.0 * sigma)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=32)
def _half_sobolev_weight(grid: GridSpec, sigma: float) -> np.ndarray:
    """`_sobolev_weight` on the half grid times each mode's Hermitian multiplicity.

    A half-spectrum coefficient off the self-conjugate planes j = 0 and
    j = n/2 of the last axis stands for itself and its mirror image -k, so
    it counts twice in the full Plancherel sum (read-only: the array is shared).
    """
    n = grid.n_per_axis
    multiplicity = np.full(n // 2 + 1, 2.0)
    multiplicity[[0, n // 2]] = 1.0
    w = _on_half(_sobolev_weight(grid, sigma), grid) * multiplicity
    w.flags.writeable = False
    return w


def sobolev_norm(F: SpectralField, sigma: float) -> float:
    """Homogeneous Sobolev norm: sqrt(L^d * sum_k |k|^(2 sigma) |F(k)|^2).

    At sigma = 0 this is the L2 norm of the physical samples (Plancherel).
    Negative sigma requires a mean-zero field.
    """
    if sigma < 0 and not F.is_mean_zero:
        raise SingularMultiplierError("negative-order norm requires a mean-zero field")
    power = np.sum(np.abs(F.coeffs) ** 2, axis=0)
    if sigma != 0:
        power *= _sobolev_weight(F.grid, sigma)
    total = float(np.sum(power))
    return float(np.sqrt(F.grid.domain_length**F.grid.dim * total))


def _half_norm(half: np.ndarray, grid: GridSpec, sigma: float) -> float:
    """`sobolev_norm` of the real field whose rfftn half spectrum is `half`."""
    total = float(np.sum(_half_sobolev_weight(grid, sigma) * np.sum(np.abs(half) ** 2, axis=0)))
    return float(np.sqrt(grid.domain_length**grid.dim * total))


def _sample_norm(values: np.ndarray, grid: GridSpec, p: float) -> float:
    """L^p norm of real samples (ncomp, n, ...) by grid quadrature of the pointwise magnitude."""
    mag = np.sqrt(np.sum(values**2, axis=0))
    if np.isinf(p):
        return float(np.max(mag))
    cell = grid.spacing**grid.dim
    return float((np.sum(mag**p) * cell) ** (1.0 / p))


def _half_linf(half: np.ndarray, grid: GridSpec) -> float:
    """`linf_norm` of the real field whose rfftn half spectrum is `half`."""
    return _sample_norm(_irfft(half), grid, np.inf)


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


def spectral_product(F: SpectralField, G: SpectralField) -> SpectralField:
    """Collocation (grid) product of two fields, dealiased with the 2/3 mask.

    Exact for inputs already band-limited to the dealias ball; that is the
    standard guarantee the solvers rely on.
    """
    F._check_same_grid(G)
    vals = _product_values(to_physical(F).values, to_physical(G).values)
    return dealias(to_spectral(PhysicalField(F.grid, vals)))


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
    +n/2.  `c` is a half spectrum, or full coefficients X, which a
    derivative can leave non-Hermitian on a Nyquist plane: P is then read
    through X itself and conj X(-k), as the full-grid padding does.
    """
    n = grid.n_per_axis
    h = n // 2 + 1
    x, y = (c, c) if c.shape[-1] == h else (c[..., :h], _conj_mirror(c))
    big = np.zeros((c.shape[0], *(2 * n,) * (grid.dim - 1), n + 1), dtype=np.complex128)
    for up, src, last in ((0, x, slice(0, h - 1)), (1, y, slice(0, h))):
        for small, large in _lead_blocks(grid, up):
            big[(slice(None), *large, last)] += src[(slice(None), *small, last)]
    big *= 0.5
    return _irfft(big)


def _padded_half(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Half spectrum of the alias-free truncated product of two factors.

    The factors are zero-padded to the 2n grid (`_padded_samples`: each a
    half spectrum, or full coefficients), multiplied there and transformed
    once.  The truncation T reads each n-grid mode at the same 2n-grid index
    and the Nyquist index n/2 at -n/2; the result is the half spectrum of
    T's Hermitian part (T(k) + conj T(-k))/2, as `_half` takes it.
    """
    big = _rfft(_product_values(_padded_samples(a, grid), _padded_samples(b, grid)))
    h = grid.n_per_axis // 2 + 1
    lo, hi = (np.empty((big.shape[0], *grid.shape[1:], h), dtype=np.complex128) for _ in range(2))
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
    return SpectralField(F.grid, _full(_padded_half(F.coeffs, G.coeffs, F.grid)))


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
    return SpectralField(grid, coeffs)


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
    return SpectralField(grid, _full(half), is_mean_zero=True)


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
    """rfftn half spectrum of `random_band_limited`: the same draws, projected on the half grid."""
    if kmax is None:
        kmax = int(np.floor(grid.dealias_fraction * (grid.n_per_axis // 2)))
    m = _index_magnitude(grid)
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
        half -= _q_half(half, grid)
    peak = _half_linf(half, grid)
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
    """Write a field snapshot: HNSF header then component-major f64 payload."""
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
            data = np.ascontiguousarray(field.coeffs, dtype=np.complex128)
            fh.write(data.astype("<c16").tobytes())
        else:
            data = np.ascontiguousarray(field.values, dtype=np.float64)
            fh.write(data.astype("<f8").tobytes())


def read_snapshot(path) -> tuple[SpectralField | PhysicalField, float]:
    """Read a snapshot written by write_snapshot.

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
        return SpectralField(grid, arr.astype(np.complex128)), time
    return PhysicalField(grid, arr.astype(np.float64)), time
