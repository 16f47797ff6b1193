"""Time integration of the three torus models and their exact linear theory.

Models:

* NS            du/dt - Lap u + P (u.grad)u = 0,  div u = 0
* HNS_EPS       eps u_tt + u_t - Lap u + P (u.grad)u = 0,  div u = 0
* HNS_EPS_ALPHA eps u_tt + u_t - Lap u = -(u.grad)u + (1/alpha) grad(div u)

The Helmholtz parts of the penalized model decouple linearly: the
divergence-free part sees a damped wave with speed c2 = 1/sqrt(eps), the
irrotational part one with speed c1 = sqrt((alpha+1)/(alpha eps)).  One
per-mode table of exact propagators per branch, `_propagator`, with the
characteristic roots' own k = 0 limits, serves `evolve_linear`, the Picard
solver and the production stepper, which couples the nonlinearity with a
second-order exponential (ETD2) rule: no stability restriction from c1, so
alpha sweeps down to 1e-4 stay cheap.  RK4 on the full right-hand side is
kept as a cross-check scheme with the usual CFL limits.

The exact linear flow (`evolve_linear`, and the front experiment through the
same `_linear_flow`) splits each nonzero datum into its Helmholtz parts once
and applies the table on the rfftn half spectrum, so it reads only the real
fields of its data.

The ETD2 stepper works on the rfftn half spectrum as well: its tables are
built on the half grid, and one half-spectrum forcing path (`_forcing_half`:
the core of `nonlinear_term`, a half-grid Leray projection and the mean
removal) serves it, the public `nonlinear_term` and the RK4 scheme.  A
`SolverState` made by the stepper holds half spectra between snapshots and
completes u and u_t to exactly Hermitian SpectralFields once, when a probe,
keep_states or a reader of the result first reads them.

The forcing takes its form from the model and the grid.  NS and HNS_EPS
evolve Leray-projected, hence divergence-free, states, so on a grid whose
dealias mask removes the Nyquist modes they use the divergence form
(u.grad)u = sum_i d_i(u_i u): d inverse and d(d+1)/2 forward transforms.
The penalized model, and every model with `grid.dealias=1`, keep the
general form of `nonlinear_term`, which adds (div u) u.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    GridSpec,
    InvalidFieldError,
    SpectralField,
    _full,
    _half,
    _half_dealias_mask,
    _half_derivatives,
    _half_inv_k_squared,
    _half_wavenumbers,
    _inv_k_squared,
    _irfft,
    _rfft,
    dealias,
    divergence,
    helmholtz_project,
    k_squared,
    laplacian,
    sobolev_norm,
)

__all__ = [
    "Model",
    "Scheme",
    "ModelParams",
    "SolverState",
    "StepperConfig",
    "BlowUpError",
    "StabilityError",
    "ContractionFailureError",
    "NoConvergenceError",
    "nonlinear_term",
    "evolve_linear",
    "step",
    "run_simulation",
    "SimulationResult",
    "recover_pressure",
    "picard_local_solve",
    "picard_time_bound",
    "PicardResult",
]

BLOWUP_FACTOR = 1e12


class Model(str, enum.Enum):
    NS = "ns"
    HNS_EPS = "hns_eps"
    HNS_EPS_ALPHA = "hns_eps_alpha"


class Scheme(str, enum.Enum):
    EXP_LINEAR_RK2 = "exp_linear_rk2"
    RK4_FULL = "rk4_full"


class BlowUpError(RuntimeError):
    def __init__(self, time: float, message: str = "", partial=None):
        super().__init__(message or f"solution blew up at t = {time:.6g}")
        self.time = time
        self.partial = partial


class StabilityError(ValueError):
    """dt violates the scheme's stability bound."""


class ContractionFailureError(RuntimeError):
    def __init__(self, trace):
        super().__init__("Picard iteration distance increased for 3 consecutive iterations")
        self.trace = trace


class NoConvergenceError(RuntimeError):
    def __init__(self, trace):
        super().__init__("Picard iteration hit max_iter without converging")
        self.trace = trace


@dataclass(frozen=True)
class ModelParams:
    """Model selection with relaxation eps, penalty alpha, regularity indices."""

    model: Model
    epsilon: float | None = None
    alpha: float | None = None
    viscosity: float = 1.0
    s: float = 0.5
    delta: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "model", Model(self.model))
        if self.viscosity != 1.0:
            raise ValueError("viscosity is fixed at 1")
        if not (0 < self.s < 1 and 0 < self.delta < 1):
            raise ValueError("regularity indices s, delta must lie in (0, 1)")
        if self.model is Model.NS:
            if self.epsilon is not None or self.alpha is not None:
                raise ValueError("NS takes neither epsilon nor alpha")
        elif self.model is Model.HNS_EPS:
            if self.epsilon is None or self.epsilon <= 0:
                raise ValueError("HNS_EPS requires epsilon > 0")
            if self.alpha is not None:
                raise ValueError("HNS_EPS takes no alpha")
        else:
            if self.epsilon is None or self.epsilon <= 0:
                raise ValueError("HNS_EPS_ALPHA requires epsilon > 0")
            if self.alpha is None or self.alpha <= 0:
                raise ValueError("HNS_EPS_ALPHA requires alpha > 0")

    @property
    def is_hyperbolic(self) -> bool:
        return self.model is not Model.NS

    @property
    def c1(self) -> float:
        """Fast (irrotational-branch) wave speed sqrt((alpha+1)/(alpha eps))."""
        if self.model is not Model.HNS_EPS_ALPHA:
            raise ValueError("c1 is defined only for the penalized model")
        return math.sqrt((self.alpha + 1.0) / (self.alpha * self.epsilon))

    @property
    def c2(self) -> float:
        """Divergence-free-branch wave speed 1/sqrt(eps)."""
        if not self.is_hyperbolic:
            raise ValueError("c2 is defined only for hyperbolic models")
        return 1.0 / math.sqrt(self.epsilon)


class SolverState:
    """Velocity, its time derivative (absent for NS), and the current time.

    A state is a value: nothing mutates it.  The ETD2 stepper makes states
    from rfftn half spectra (`_of_half`) and reads them back (`_halves`);
    `u` and `u_t` complete a half spectrum to its exactly Hermitian
    SpectralField once, when first read.
    """

    def __init__(self, u: SpectralField, u_t: SpectralField | None, time: float = 0.0):
        self.grid = u.grid
        self.time = time
        self._fields = [u, u_t]
        self._half = None

    @classmethod
    def _of_half(cls, grid: GridSpec, u: np.ndarray, u_t: np.ndarray | None, time: float):
        state = cls.__new__(cls)
        state.grid = grid
        state.time = time
        state._fields = [None, None]
        state._half = (u, u_t)
        return state

    def _field(self, i: int) -> SpectralField | None:
        if self._fields[i] is None and self._half is not None and self._half[i] is not None:
            half = self._half[i]
            mean = half[(slice(None), *(0,) * self.grid.dim)]
            self._fields[i] = SpectralField(self.grid, _full(half), is_mean_zero=not mean.any())
        return self._fields[i]

    @property
    def u(self) -> SpectralField:
        return self._field(0)

    @property
    def u_t(self) -> SpectralField | None:
        return self._field(1)

    def _halves(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Half spectra of (u, u_t); for a state built from fields, of their Hermitian parts."""
        if self._half is None:
            self._half = tuple(None if F is None else _half(F.coeffs) for F in self._fields)
        return self._half


@dataclass
class StepperConfig:
    dt: float
    t_end: float
    scheme: Scheme = Scheme.EXP_LINEAR_RK2
    snapshot_every: int = 1

    def __post_init__(self):
        self.scheme = Scheme(self.scheme)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")

    def check_stability(self, params: ModelParams, grid: GridSpec):
        """Scheme-specific stability precondition.

        The exponential scheme treats the linear operator exactly and has no
        linear restriction.  RK4 on the full system must keep every linear
        eigenvalue inside its stability region (|z| <~ 2.78 on the axes).
        """
        if self.scheme is Scheme.EXP_LINEAR_RK2:
            return
        kmax = grid.k_max_dealiased
        if params.model is Model.NS:
            rate = kmax**2
        else:
            speed = params.c1 if params.model is Model.HNS_EPS_ALPHA else params.c2
            rate = max(speed * kmax, 1.0 / params.epsilon, kmax**2 * params.epsilon)
        if self.dt * rate > 2.78:
            raise StabilityError(
                f"RK4_FULL unstable: dt*rate = {self.dt * rate:.3g} > 2.78 "
                f"(dt = {self.dt:.3g}, rate = {rate:.3g})"
            )


# ---------------------------------------------------------------------------
# nonlinearity
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=2)
def _product_pairs(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols) of the products u_i u_j with i <= j, and pair[i, j], the position of u_i u_j."""
    rows, cols = np.triu_indices(dim)
    pair = np.empty((dim, dim), dtype=int)
    pair[rows, cols] = pair[cols, rows] = np.arange(rows.size)
    return rows, cols, pair


def nonlinear_term(u: SpectralField) -> SpectralField:
    """Forcing f(u) = -(u.grad)u, pseudo-spectral and dealiased.

    Built from the conservative identity (u.grad)u = sum_i d_i(u_i u) - (div u) u,
    which holds for fields with nonzero divergence, with two batched
    transforms: one inverse of (u, div u) and one forward of the d(d+1)/2
    products u_i u_j and the d products (div u) u_j.  u is read as the real
    field to_physical(u), through the half spectrum of its Hermitian part, so
    the result depends on nothing else.  The mean of (div u) u is kept.
    """
    if u.ncomp != u.grid.dim:
        raise InvalidFieldError("nonlinear term expects a full velocity field")
    return SpectralField(u.grid, _full(_nonlinear_half(_half(u.coeffs), u.grid)))


def _nonlinear_half(half: np.ndarray, grid: GridSpec, solenoidal: bool = False) -> np.ndarray:
    """Half spectrum of f(u) from the half spectrum of u: the core of `nonlinear_term`.

    solenoidal drops the (div u) u products and the div u inverse, leaving the
    divergence form -sum_i d_i(u_i u), which equals f(u) only for div u = 0.
    """
    dim = grid.dim
    ik = _half_derivatives(grid)
    rows, cols, pair = _product_pairs(dim)
    npairs = rows.size
    if solenoidal:
        phys = _irfft(half)
        prods = np.empty((npairs, *phys.shape[1:]))
    else:
        stack = np.empty((dim + 1, *half.shape[1:]), dtype=np.complex128)
        stack[:dim] = half
        np.multiply(ik[0], half[0], out=stack[dim])
        for i in range(1, dim):
            stack[dim] += ik[i] * half[i]
        phys = _irfft(stack)
        prods = np.empty((npairs + dim, *phys.shape[1:]))
        np.multiply(phys[dim], phys[:dim], out=prods[npairs:])
    np.multiply(phys[rows], phys[cols], out=prods[:npairs])
    prods = _rfft(prods)
    if solenoidal:
        out = np.zeros((dim, *prods.shape[1:]), dtype=np.complex128)
    else:
        out = prods[npairs:]  # (div u) u_j
    for j in range(dim):
        for i in range(dim):
            out[j] -= ik[i] * prods[pair[i, j]]
    out *= _half_dealias_mask(grid)
    return out


def _q_half(x: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Irrotational part k (k.x)/|k|^2 of a half spectrum, as `helmholtz_project`'s Q."""
    ks = _half_wavenumbers(grid)
    kdot = ks[0] * x[0]
    for i in range(1, grid.dim):
        kdot += ks[i] * x[i]
    kdot *= _half_inv_k_squared(grid)
    return np.stack([k * kdot for k in ks])


def _forcing_half(u: np.ndarray, grid: GridSpec, params: ModelParams, nonlinearity: bool):
    """Model forcing on the half spectrum: f(u), Leray-projected for the constrained models.

    The constrained models evolve divergence-free fields, so they take the
    divergence form of f (`_nonlinear_half(solenoidal=True)`: d inverse and
    d(d+1)/2 forward transforms instead of d+1 and d(d+1)/2 + d), but only
    when the dealias mask removes every Nyquist mode.  With `grid.dealias=1`
    the Nyquist-zeroed derivative leaves a projected state a discrete
    divergence that is not rounding, and the general form is kept.
    The mean of f is discarded: evolved fields are kept mean-zero, so the
    small net force the compressible nonlinearity would exert on the torus
    (absent on the whole space) is not allowed to drive a mean flow.
    """
    if not nonlinearity:
        return np.zeros_like(u)
    constrained = params.model in (Model.NS, Model.HNS_EPS)
    f = _nonlinear_half(u, grid, solenoidal=constrained and grid.k_max_dealiased < grid.k_max)
    if constrained:
        f -= _q_half(f, grid)
    f[(slice(None), *(0,) * grid.dim)] = 0.0
    return f


# ---------------------------------------------------------------------------
# exact per-mode linear theory
# ---------------------------------------------------------------------------


def _mode_functions(t: float, eps: float, gamma: float, c2k2: np.ndarray, a_only: bool = False):
    """Initial-value propagators of  l'' + (gamma/eps) l' + c2k2 l = 0.

    Returns (A, B, A', B') evaluated at t as arrays over modes, where the
    solution with data (a, b) is a A + b B.  Stable for overdamped, critically
    damped, and oscillatory modes alike: everything is expressed through
    exp((mu - b) t) and exp(-(mu + b) t) with Re mu <= b, so no overflow.
    a_only returns (A, None, None, None); A = Ec + b B then needs B only when
    damped (b > 0).
    """
    b = gamma / (2.0 * eps) if gamma else 0.0
    need_b = not a_only or b != 0.0
    disc = np.asarray(b * b - c2k2, dtype=float)
    B = np.empty_like(disc)
    Ec = np.empty_like(disc)

    osc = disc < 0
    if np.any(osc):
        om = np.sqrt(-disc[osc])
        damp = math.exp(-b * t)
        Ec[osc] = damp * np.cos(om * t)
        if need_b:
            with np.errstate(invalid="ignore"):
                B[osc] = damp * np.where(
                    om * t > 1e-12, np.sin(om * t) / np.where(om > 0, om, 1.0), t
                )
    mono = ~osc
    if np.any(mono):
        mu = np.sqrt(disc[mono])
        ep = np.exp((mu - b) * t)
        em = np.exp(-(mu + b) * t)
        Ec[mono] = 0.5 * (ep + em)
        if need_b:
            small = mu * t < 1e-6
            Bm = np.empty_like(mu)
            Bm[small] = t * np.exp(-b * t) * (1.0 + (mu[small] * t) ** 2 / 6.0)
            big = ~small
            Bm[big] = (ep[big] - em[big]) / (2.0 * mu[big])
            B[mono] = Bm
    if not need_b:
        return Ec, None, None, None  # A = Ec + 0 B
    A = Ec + b * B
    if a_only:
        return A, None, None, None
    Ap = -c2k2 * B
    Bp = Ec - b * B
    return A, B, Ap, Bp


def _branch_c2k2(
    params: ModelParams, grid: GridSpec, branch: str, half: bool = False
) -> np.ndarray:
    """c^2 k^2 of a Helmholtz branch: speed c2 on P; on Q, c1 if penalized, else c2.

    half: on the rfftn half grid, the first n/2+1 entries of the last axis.
    """
    c = params.c1 if branch == "Q" and params.model is Model.HNS_EPS_ALPHA else params.c2
    k2 = k_squared(grid)
    if half:
        k2 = k2[..., : grid.n_per_axis // 2 + 1]
    return c * c * k2


def _propagator(
    params: ModelParams,
    grid: GridSpec,
    t: float,
    damping: bool,
    branch: str,
    half: bool = False,
    a_only: bool = False,
):
    """The per-mode propagator table (A, B, A', B') at t of one Helmholtz branch.

    Data (a, b) of eps l'' + gamma l' + eps c^2 k^2 l = 0 evolve to a A + b B,
    with gamma = 1 when damped and 0 for the pure wave.  k = 0 keeps
    _mode_functions' own limits (A = 1, A' = 0; undamped B = t, B' = 1).
    One branch per call, so a caller can apply it before building the next;
    half evaluates it on the rfftn half grid, a_only forms A alone.
    """
    gamma = 1.0 if damping else 0.0
    c2k2 = _branch_c2k2(params, grid, branch, half)
    return _mode_functions(t, params.epsilon, gamma, c2k2, a_only)


def _split(F: SpectralField) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the Helmholtz parts (P F, Q F), from one projection."""
    q = helmholtz_project(F, "Q")
    return (F - q).coeffs, q.coeffs


def _half_split(F: SpectralField) -> tuple[np.ndarray, np.ndarray] | None:
    """Half spectra of the Helmholtz parts (P F, Q F) of F's real field; None if F is zero."""
    if not F.coeffs.any():
        return None
    return tuple(_half(part) for part in _split(F))


def _linear_flow(params: ModelParams, grid: GridSpec, t: float, damping: bool, x0, x1, rate: bool):
    """Half spectra of u(t) and, if rate, u_t(t) of the linear flow from split data.

    x0, x1 are the `_half_split` parts of u0 and u1 (None for zero data, which
    costs nothing).  Without rate the u_t half is None, and without rate and
    u1 only the table's A is formed.
    """
    h = grid.n_per_axis // 2 + 1
    u = np.zeros((grid.dim, *grid.shape[:-1], h), dtype=np.complex128)
    v = np.zeros_like(u) if rate else None
    a_only = not rate and x1 is None
    for i, branch in enumerate("PQ"):
        A, B, Ap, Bp = _propagator(params, grid, t, damping, branch, half=True, a_only=a_only)
        for x, X, Xp in ((x0, A, Ap), (x1, B, Bp)):
            if x is None:
                continue
            u += X * x[i]
            if rate:
                v += Xp * x[i]
    return u, v


def evolve_linear(
    u0: SpectralField,
    u1: SpectralField,
    params: ModelParams,
    t: float,
    damping: bool = True,
) -> SolverState:
    """Exact solution of the linear (f = 0) model at time t.

    With damping the per-mode characteristic roots of
    eps l'' + l' + eps c^2 k^2 l = 0 are used; without damping this reduces to
    the pure wave propagators (used by the front-speed experiments).  Each
    datum is split into its Helmholtz parts once and propagated on the rfftn
    half spectrum, so the result depends only on the real fields
    to_physical(u0) and to_physical(u1).  The Helmholtz parts of full-band
    data carry a Nyquist part that is not Hermitian (see `helmholtz_project`);
    it is dropped with the rest of what no real field has.
    """
    grid = u0.grid
    u, v = _linear_flow(params, grid, t, damping, _half_split(u0), _half_split(u1), rate=True)
    return SolverState(
        SpectralField(grid, _full(u), is_mean_zero=True),
        SpectralField(grid, _full(v), is_mean_zero=True),
        t,
    )


# ---------------------------------------------------------------------------
# exact-linear exponential stepper (ETD2)
# ---------------------------------------------------------------------------


def _phi2(z: np.ndarray) -> np.ndarray:
    """(e^z - 1 - z)/z^2, series-switched for small |z|."""
    out = np.empty_like(z)
    small = np.abs(z) < 0.1
    zs = z[small]
    out[small] = 0.5 + zs / 6 + zs**2 / 24 + zs**3 / 120 + zs**4 / 720 + zs**5 / 5040
    zb = z[~small]
    out[~small] = (np.expm1(zb) - zb) / (zb * zb)
    return out


def _etd2_branch(params: ModelParams, grid: GridSpec, dt: float, branch: str) -> tuple:
    """ETD2 table of one Helmholtz branch on the half grid: (A, B, A', B', J0u, J0v, Ku, Kv).

    For y' = L y + (0, g)^T with L = [[0, 1], [-c^2 k^2, -1/eps]] the update is

        a      = E y_n + J0 g_n
        y_next = a + K (g(a) - g_n)

    where E = exp(L dt) is the damped propagator (A, B; A', B'),
    J0 = Int_0^dt exp(L tau) dtau (second column) and K = J0 - J1/dt with
    J1 = Int_0^dt tau exp(L tau) dtau.  The integrals come from L^-1 algebra
    on the propagator entries, so the kernel integration is exact and the
    oscillatory branch costs nothing in stability.
    """
    A, B, Ap, Bp = _propagator(params, grid, dt, True, branch, half=True)
    c2k2 = _branch_c2k2(params, grid, branch, half=True)
    ge = 1.0 / params.epsilon
    safe = np.where(c2k2 > 0, c2k2, 1.0)  # k = 0 multiplies only zero
    j0u = (1.0 - Bp - ge * B) / safe
    l1u = (-ge * B - Bp) / safe
    l2u = (-ge * j0u - B) / safe
    j1u = dt * l1u - l2u
    j1v = dt * B - j0u
    return A, B, Ap, Bp, j0u, B, j0u - j1u / dt, B - j1v / dt


@functools.lru_cache(maxsize=16)
def _etd2_tables(model: Model, eps: float | None, alpha: float | None, grid: GridSpec, dt: float):
    """ETD2 tables of one (model, grid, dt), on the rfftn half grid.

    NS, u' = -k^2 u + g per mode: (E, J0, K).  The hyperbolic models: the
    (P, Q) pair of `_etd2_branch` tables; Q is the P table object unless the
    model is penalized, since the branch speeds are then equal.
    """
    if model is Model.NS:
        k2 = k_squared(grid)[..., : grid.n_per_axis // 2 + 1]
        z = -k2 * dt
        J0 = -np.expm1(z) / np.where(k2 > 0, k2, 1.0)
        return np.exp(z), J0, dt * _phi2(z)
    params = ModelParams(model, epsilon=eps, alpha=alpha)
    P = _etd2_branch(params, grid, dt, "P")
    return P, (_etd2_branch(params, grid, dt, "Q") if model is Model.HNS_EPS_ALPHA else P)


def _by_branch(tables, grid: GridSpec, kernel, *halves: np.ndarray) -> tuple:
    """kernel(branch table, *half spectra), summed over the Helmholtz branches.

    The spectra are split into their P and Q parts only when the tables differ.
    """
    P, Q = tables
    if Q is P:
        return kernel(P, *halves)
    qs = [_q_half(x, grid) for x in halves]
    out_p = kernel(P, *(x - q for x, q in zip(halves, qs)))
    out_q = kernel(Q, *qs)
    return tuple(a + b for a, b in zip(out_p, out_q))


def _etd2_predict(tab, u, v, g):
    """Predictor E (u, v) + J0 g on one branch."""
    A, B, Ap, Bp, j0u, j0v, _, _ = tab
    return A * u + B * v + j0u * g, Ap * u + Bp * v + j0v * g


def _etd2_correct(tab, dg):
    """Corrector increment K dg on one branch."""
    *_, ku, kv = tab
    return ku * dg, kv * dg


def _penalty_gradient(u: SpectralField, alpha: float) -> SpectralField:
    """(1/alpha) grad(div u) of u's real field, formed on the half spectrum as the forcing is.

    The Nyquist-zeroed derivatives keep the result exactly Hermitian, so RK4
    stays on real fields with `grid.dealias=1`.
    """
    ik = _half_derivatives(u.grid)
    half = _half(u.coeffs)
    div = ik[0] * half[0]
    for i in range(1, u.grid.dim):
        div += ik[i] * half[i]
    div *= 1.0 / alpha
    return SpectralField(u.grid, _full(np.stack([k * div for k in ik])), is_mean_zero=True)


def _rhs_full(state: SolverState, params: ModelParams, nonlinearity: bool):
    """Right-hand side for RK4_FULL as a first-order system."""
    u = state.u
    f = _forcing_half(_half(u.coeffs), u.grid, params, nonlinearity)
    f = SpectralField(u.grid, _full(f), is_mean_zero=True)
    if params.model is Model.NS:
        return laplacian(u) + f, None
    v = state.u_t
    acc = laplacian(u) - v + f
    if params.model is Model.HNS_EPS_ALPHA:
        acc = acc + _penalty_gradient(u, params.alpha)
    return v, (1.0 / params.epsilon) * acc


def _check_blowup(u, initial_max: float, time: float, partial=None):
    """Raise BlowUpError when max |c| of u leaves 1e12 times its initial value.

    u is a SpectralField or a half spectrum: an exactly Hermitian full array
    has the same max |c| as its half spectrum.
    """
    c = u.coeffs if isinstance(u, SpectralField) else u
    m = float(np.max(np.abs(c)))
    if not np.isfinite(m) or m > BLOWUP_FACTOR * max(initial_max, 1e-30):
        raise BlowUpError(time, partial=partial)


def step(
    state: SolverState,
    params: ModelParams,
    cfg: StepperConfig,
    nonlinearity: bool = True,
) -> SolverState:
    """Advance one dt with the configured scheme.

    ETD2 runs on the rfftn half spectra of the state and returns a state
    holding half spectra, completed to fields only when read.  For NS and
    HNS_EPS the state must be divergence-free, as `run_simulation` makes it:
    their forcing is then the divergence form (see `_forcing_half`).
    """
    if cfg.scheme is Scheme.RK4_FULL:
        return _step_rk4(state, params, cfg, nonlinearity)
    grid = state.grid
    dt = cfg.dt
    tables = _etd2_tables(params.model, params.epsilon, params.alpha, grid, dt)
    u, v = state._halves()
    mean = (slice(None), *(0,) * grid.dim)

    def forcing(x):
        return _forcing_half(x, grid, params, nonlinearity)

    if params.model is Model.NS:
        E, J0, K = tables
        g0 = forcing(u)
        a = E * u + J0 * g0
        a[mean] = 0.0
        unew = a + K * (forcing(a) - g0)
        unew[mean] = 0.0
        return SolverState._of_half(grid, unew, None, state.time + dt)
    scale = 1.0 / params.epsilon
    g0 = scale * forcing(u)
    au, av = _by_branch(tables, grid, _etd2_predict, u, v, g0)
    au[mean] = 0.0
    du, dv = _by_branch(tables, grid, _etd2_correct, scale * forcing(au) - g0)
    unew = au + du
    vnew = av + dv
    unew[mean] = vnew[mean] = 0.0
    return SolverState._of_half(grid, unew, vnew, state.time + dt)


def _step_rk4(state, params, cfg, nonlinearity):
    dt = cfg.dt

    def rhs(st):
        return _rhs_full(st, params, nonlinearity)

    def advance(st, k, factor):
        du, dv = k
        u = st.u + factor * du
        v = None if dv is None else st.u_t + factor * dv
        return SolverState(u, v, st.time)

    k1 = rhs(state)
    k2 = rhs(advance(state, k1, dt / 2))
    k3 = rhs(advance(state, k2, dt / 2))
    k4 = rhs(advance(state, k3, dt))
    u = state.u + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    if k1[1] is None:
        v = None
    else:
        v = state.u_t + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return SolverState(u, v, state.time + dt)


@dataclass
class SimulationResult:
    times: list[float]
    probes: dict[str, list[float]]
    final: SolverState
    states: list[SolverState] = field(default_factory=list)


def run_simulation(
    u0: SpectralField,
    u1: SpectralField | None,
    params: ModelParams,
    cfg: StepperConfig,
    probes: dict | None = None,
    nonlinearity: bool = True,
    keep_states: bool = False,
) -> SimulationResult:
    """Step to t_end, evaluating probes every snapshot_every steps.

    Probes are pure functions state -> float.  Deterministic given inputs.
    The state is held as the rfftn half spectra of the data's real fields
    and completed to SpectralFields only where a probe, keep_states or a
    reader of the result reads it.  A blow-up raises BlowUpError with the
    partial series attached; its `final` is the state that blew up.
    """
    grid = u0.grid
    cfg.check_stability(params, grid)
    probes = probes or {}
    if params.is_hyperbolic and u1 is None:
        u1 = SpectralField.zeros(grid, grid.dim)
    u0 = dealias(u0)
    u1 = None if params.model is Model.NS else dealias(u1)
    if params.model in (Model.NS, Model.HNS_EPS):
        # the constrained models live on divergence-free fields
        u0 = helmholtz_project(u0, "P")
        if u1 is not None:
            u1 = helmholtz_project(u1, "P")
    half1 = None if u1 is None else _half(u1.coeffs)
    state = SolverState._of_half(grid, _half(u0.coeffs), half1, 0.0)
    initial_max = float(np.max(np.abs(state._halves()[0])))
    n_steps = int(round(cfg.t_end / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * max(cfg.t_end, cfg.dt):
        raise ValueError("t_end must be an integer multiple of dt")

    result = SimulationResult(times=[], probes={k: [] for k in probes}, final=state)

    def record(st):
        result.times.append(st.time)
        for name, fn in probes.items():
            result.probes[name].append(float(fn(st)))
        if keep_states:
            result.states.append(SolverState(st.u, st.u_t, st.time))

    record(state)
    for i in range(n_steps):
        state = step(state, params, cfg, nonlinearity=nonlinearity)
        result.final = state
        _check_blowup(state._halves()[0], initial_max, state.time, partial=result)
        if (i + 1) % cfg.snapshot_every == 0 or i + 1 == n_steps:
            record(state)
    return result


def recover_pressure(u: SpectralField) -> SpectralField:
    """p = -Lap^{-1} div((u.grad)u), zero-mean; grad p = Q f(u) for div-free u."""
    if not u.is_mean_zero:
        raise InvalidFieldError("pressure recovery expects a mean-zero field")
    conv = -1.0 * nonlinear_term(u)  # (u.grad)u
    rhs = divergence(conv)
    return SpectralField(u.grid, rhs.coeffs * _inv_k_squared(u.grid), is_mean_zero=True)


# ---------------------------------------------------------------------------
# Picard local solver
# ---------------------------------------------------------------------------


def xt_norm(us: list[SpectralField], vs: list[SpectralField], n_over_2_delta: float) -> float:
    """sup-in-time H^(n/2+d) + H^(n/2+d-1) of u plus H^(n/2+d-1) of du/dt."""
    hi = max(sobolev_norm(u, n_over_2_delta) for u in us)
    lo = max(sobolev_norm(u, n_over_2_delta - 1.0) for u in us)
    vt = max(sobolev_norm(v, n_over_2_delta - 1.0) for v in vs)
    return hi + lo + vt


@dataclass
class PicardResult:
    state: SolverState
    xt_norms: list[float]
    distances: list[float]
    iterations: int


def picard_time_bound(
    u0: SpectralField, u1: SpectralField, params: ModelParams, safety: float = 0.5
) -> float:
    """Largest horizon on which the Duhamel map is expected to contract.

    The damping source enters the fixed-point map through kernels carrying a
    1/eps factor, so the contraction window scales like eps divided by the
    data bracket of the local-existence estimate (all four A/B data terms).
    """
    eps = params.epsilon
    alpha = params.alpha if params.model is Model.HNS_EPS_ALPHA else math.inf
    sig = u0.grid.dim / 2.0 + params.delta
    root_ratio = math.sqrt((alpha + 1.0) / alpha) if math.isfinite(alpha) else 1.0
    bracket = (
        (2.0 + (1.0 + root_ratio) / math.sqrt(eps)) * sobolev_norm(u0, sig)
        + 2.0 * sobolev_norm(u0, sig - 1.0)
        + (2.0 + math.sqrt(eps)) * sobolev_norm(u1, sig - 1.0)
    )
    return safety * eps / (1.0 + bracket)


def picard_local_solve(
    u0: SpectralField,
    u1: SpectralField,
    params: ModelParams,
    T: float,
    max_iter: int = 40,
    tol: float = 1e-10,
    n_mesh: int = 64,
    nonlinearity: bool = True,
    enforce_time_bound: bool = True,
) -> PicardResult:
    """Fixed-point iteration of the Duhamel map on a uniform time mesh.

    phi(u)(t) = A(t) u0 + B(t) u1 + (1/eps) Int_0^t B(t-s) (f(u) - du/dt)(s) ds

    with the undamped branch propagators A, B and composite-trapezoid
    quadrature for the integral.  Iteration stops when successive iterates are
    closer than tol in the X_T norm; three consecutive distance increases
    raise ContractionFailureError, exhaustion raises NoConvergenceError.
    """
    if not params.is_hyperbolic:
        raise ValueError("the Picard solver addresses the hyperbolic models")
    if not (u0.is_mean_zero and u1.is_mean_zero):
        raise InvalidFieldError("Picard data must be mean-zero")
    if enforce_time_bound:
        bound = picard_time_bound(u0, u1, params)
        if T > bound:
            raise ValueError(f"T = {T:.4g} exceeds the contraction bound {bound:.4g}")
    grid = u0.grid
    eps = params.epsilon
    sig = grid.dim / 2.0 + params.delta
    times = np.linspace(0.0, T, n_mesh + 1)
    tabs = [[_propagator(params, grid, float(t), False, b) for t in times] for b in "PQ"]
    # A, B, A', B' as (branch P/Q, lag t_0..t_M, *grid.shape); data as (branch, component, ...)
    A, B, Ap, Bp = (np.array([[tab[i] for tab in branch] for branch in tabs]) for i in range(4))
    x0, x1 = np.array(_split(u0)), np.array(_split(u1))
    branch_sum = functools.partial(np.einsum, "bm...,bc...->mc...")
    base_u = branch_sum(A, x0) + branch_sum(B, x1)
    base_v = branch_sum(Ap, x0) + branch_sum(Bp, x1)

    # composite trapezoid over s_0..s_m of B(t_m - s) g(s) / eps: the source
    # weights halve s_0, the lag weights halve s = t_m
    trap = np.ones(n_mesh + 1)
    trap[0] = 0.5
    src_w = (T / n_mesh / eps * trap).reshape(-1, *(1,) * (grid.dim + 1))
    B, Bp = (X * trap.reshape(-1, *(1,) * grid.dim) for X in (B, Bp))

    us = [SpectralField.zeros(grid, grid.dim) for _ in range(n_mesh + 1)]
    vs = [SpectralField.zeros(grid, grid.dim) for _ in range(n_mesh + 1)]

    xt_norms: list[float] = []
    distances: list[float] = []
    increases = 0
    g = np.empty((2, *base_u.shape), dtype=np.complex128)  # weighted sources, per branch
    for it in range(max_iter):
        for m in range(n_mesh + 1):
            src = -1.0 * vs[m]
            if nonlinearity:
                src = src + nonlinear_term(us[m])
            g[:, m] = _split(src)
        g *= src_w
        new_u, new_v = base_u.copy(), base_v.copy()
        for lag in range(n_mesh + 1):
            first = max(lag, 1)  # no integral at t_0
            j = slice(first - lag, n_mesh + 1 - lag)
            new_u[first:] += np.einsum("b...,bjc...->jc...", B[:, lag], g[:, j])
            new_v[first:] += np.einsum("b...,bjc...->jc...", Bp[:, lag], g[:, j])
        new_u = [SpectralField(grid, c) for c in new_u]
        new_v = [SpectralField(grid, c) for c in new_v]
        dist = xt_norm(
            [a - b for a, b in zip(new_u, us)], [a - b for a, b in zip(new_v, vs)], sig
        )
        us, vs = new_u, new_v
        xt_norms.append(xt_norm(us, vs, sig))
        distances.append(dist)
        if len(distances) >= 2 and dist > distances[-2]:
            increases += 1
            if increases >= 3:
                raise ContractionFailureError((xt_norms, distances))
        else:
            increases = 0
        if dist <= tol:
            # copies: views would keep the whole mesh of iterates alive
            state = SolverState(us[-1].copy(), vs[-1].copy(), T)
            return PicardResult(state, xt_norms, distances, it + 1)
    raise NoConvergenceError((xt_norms, distances))
