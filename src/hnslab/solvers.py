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

Every field here is a SpectralField, the rfftn half spectrum of a real
field, and every table is built on the half grid.  The exact linear flow
(`evolve_linear`, and the front experiment through the same `_linear_flow`)
splits each nonzero datum into its Helmholtz parts once and applies the
table.  One forcing path (`_forcing`: the core of `nonlinear_term`, the
Leray projection and the mean removal) serves the ETD2 stepper, the public
`nonlinear_term` and the RK4 scheme.  A `SolverState` is the plain value
(u, u_t, time); the stepper wraps its arrays in fields without copying them.

Workspace rule: every intermediate of a forcing and of an ETD2 step is
written with in-place ufuncs into one scratch `_Workspace` per grid (cached
for one grid at a time, so a sweep's reference run and its points share
it), in the same operation order as the allocating expressions it replaces,
so outputs are unchanged to the bit.  A step allocates only the arrays of
the state it returns; `nonlinear_term`, RK4 and Picard get a fresh forcing
array from the same core.  No scratch content survives a call, and nothing
returned aliases the workspace.  The workspace is per process and is not
thread-safe: run concurrent solves in separate processes, as the sweeps do.

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
    _derivatives,
    _irfft,
    _irrotational,
    _rfft,
    dealias,
    dealias_mask,
    divergence,
    gradient,
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


@dataclass(frozen=True)
class SolverState:
    """Velocity, its time derivative (absent for NS), and the current time."""

    u: SpectralField
    u_t: SpectralField | None
    time: float = 0.0


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
    products u_i u_j and the d products (div u) u_j.  The mean of (div u) u
    is kept.
    """
    if u.ncomp != u.grid.dim:
        raise InvalidFieldError("nonlinear term expects a full velocity field")
    return SpectralField(u.grid, _nonlinear(u.coeffs, u.grid))


def _words(specs) -> int:
    """float64 words of the arrays described by (shape, dtype) specs."""
    return sum(math.prod(shape) * np.dtype(dtype).itemsize // 8 for shape, dtype in specs)


def _views(buf: np.ndarray, specs) -> list[np.ndarray]:
    """Consecutive views of the flat float64 buffer buf, one per (shape, dtype) in specs."""
    views, start = [], 0
    for spec in specs:
        words = _words([spec])
        views.append(buf[start : start + words].view(spec[1]).reshape(spec[0]))
        start += words
    return views


class _Workspace:
    """Scratch arrays of one grid for every intermediate of a forcing and an ETD2 step.

    The step region holds what lives across a step's two forcings: the
    scaled forcing g0 of the state, the predictor (au, av) and the forcing
    g1 of au.  The phase region is sized by its largest phase and shared in
    time.  A forcing uses it for its transform buffers: the spectra `fhat`,
    whose first rows are also the inverse transform's input stack, the
    samples `phys`, the products `prods` and one component `tmp`.  The
    Helmholtz split of the predictor and corrector then uses it for one
    datum's parts `q` and `p`, a product `prod`, the Q-branch sums `sums`
    and the corrector's `increment`, and the blow-up check for |c|.  Nothing
    in it outlives the call that fills it.
    """

    def __init__(self, grid: GridSpec):
        d = grid.dim
        npairs = d * (d + 1) // 2
        H, R = grid.spectral_shape, grid.shape
        c, f = np.complex128, np.float64
        vec, pair = ((d, *H), c), ((2, d, *H), c)
        forcing = (((npairs + d, *H), c), ((d + 1, *R), f), ((npairs + d, *R), f), (H, c))
        split = (vec, vec, vec, pair, pair)
        phase = np.empty(max(_words(forcing), _words(split)))
        self.fhat, self.phys, self.prods, self.tmp = _views(phase, forcing)
        self.q, self.p, self.prod, self.sums, self.increment = _views(phase, split)
        (self.magnitude,) = _views(phase, [((d, *H), f)])
        step = (vec,) * 4
        self.g0, self.au, self.av, self.g1 = _views(np.empty(_words(step)), step)


@functools.lru_cache(maxsize=1)
def _workspace(grid: GridSpec) -> _Workspace:
    """The scratch workspace of grid; one grid at a time, so a sweep's runs share it."""
    return _Workspace(grid)


def _nonlinear(
    u: np.ndarray, grid: GridSpec, solenoidal: bool = False, out: np.ndarray | None = None
) -> np.ndarray:
    """Coefficients of f(u) from those of u, into out (fresh if None): the core of `nonlinear_term`.

    solenoidal drops the (div u) u products and the div u inverse, leaving the
    divergence form -sum_i d_i(u_i u), which equals f(u) only for div u = 0.
    The intermediates live in the grid's workspace; out must not be one of them.
    """
    dim = grid.dim
    ik = _derivatives(grid)
    rows, cols, pair = _product_pairs(dim)
    npairs = rows.size
    ws = _workspace(grid)
    tmp = ws.tmp
    n_in, n_out = (dim, npairs) if solenoidal else (dim + 1, npairs + dim)
    phys, prods, fhat = ws.phys[:n_in], ws.prods[:n_out], ws.fhat[:n_out]
    if solenoidal:
        _irfft(u, out=phys)
    else:
        stack = fhat[:n_in]
        stack[:dim] = u
        np.multiply(ik[0], u[0], out=stack[dim])
        for i in range(1, dim):
            np.multiply(ik[i], u[i], out=tmp)
            stack[dim] += tmp
        _irfft(stack, out=phys)
        np.multiply(phys[dim], phys[:dim], out=prods[npairs:])
    for k, (i, j) in enumerate(zip(rows, cols)):
        np.multiply(phys[i], phys[j], out=prods[k])
    _rfft(prods, out=fhat)
    if out is None:
        out = np.empty((dim, *grid.spectral_shape), dtype=np.complex128)
    for j in range(dim):
        for i in range(dim):
            np.multiply(ik[i], fhat[pair[i, j]], out=tmp)
            if i > 0:
                out[j] -= tmp
            elif solenoidal:
                np.subtract(0.0, tmp, out=out[j])
            else:
                np.subtract(fhat[npairs + j], tmp, out=out[j])  # (div u) u_j
    out *= dealias_mask(grid)
    return out


def _forcing(
    u: np.ndarray,
    grid: GridSpec,
    params: ModelParams,
    nonlinearity: bool,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Coefficients of the model forcing f(u), Leray-projected for the constrained models.

    The constrained models evolve divergence-free fields, so they take the
    divergence form of f (`_nonlinear(solenoidal=True)`: d inverse and
    d(d+1)/2 forward transforms instead of d+1 and d(d+1)/2 + d), but only
    when the dealias mask removes every Nyquist mode; with `grid.dealias=1`
    the general form is kept.
    The mean of f is discarded: evolved fields are kept mean-zero, so the
    small net force the compressible nonlinearity would exert on the torus
    (absent on the whole space) is not allowed to drive a mean flow.
    The result goes to out, fresh if None.
    """
    if out is None:
        out = np.empty_like(u)
    if not nonlinearity:
        out.fill(0.0)
        return out
    constrained = params.model in (Model.NS, Model.HNS_EPS)
    solenoidal = constrained and grid.k_max_dealiased < grid.k_max
    f = _nonlinear(u, grid, solenoidal=solenoidal, out=out)
    if constrained:
        f -= _irrotational(f, grid, out=_workspace(grid).q)
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


def _branch_c2k2(params: ModelParams, grid: GridSpec, branch: str) -> np.ndarray:
    """c^2 k^2 of a Helmholtz branch: speed c2 on P; on Q, c1 if penalized, else c2."""
    c = params.c1 if branch == "Q" and params.model is Model.HNS_EPS_ALPHA else params.c2
    return c * c * k_squared(grid)


def _propagator(
    params: ModelParams, grid: GridSpec, t: float, damping: bool, branch: str, a_only: bool = False
):
    """The per-mode propagator table (A, B, A', B') at t of one Helmholtz branch.

    Data (a, b) of eps l'' + gamma l' + eps c^2 k^2 l = 0 evolve to a A + b B,
    with gamma = 1 when damped and 0 for the pure wave.  k = 0 keeps
    _mode_functions' own limits (A = 1, A' = 0; undamped B = t, B' = 1).
    One branch per call, so a caller can apply it before building the next;
    a_only forms A alone.
    """
    gamma = 1.0 if damping else 0.0
    c2k2 = _branch_c2k2(params, grid, branch)
    return _mode_functions(t, params.epsilon, gamma, c2k2, a_only)


def _split(F: SpectralField) -> np.ndarray:
    """Coefficients of the Helmholtz parts stacked as (P F, Q F), from one projection."""
    q = helmholtz_project(F, "Q")
    return np.stack([(F - q).coeffs, q.coeffs])


def _linear_flow(params: ModelParams, grid: GridSpec, t: float, damping: bool, x0, x1, rate: bool):
    """Coefficients of u(t) and, if rate, u_t(t) of the linear flow from split data.

    x0, x1 are the `_split` parts of u0 and u1 (None for zero data, which
    costs nothing).  Without rate u_t is None, and without rate and u1 only
    the table's A is formed.
    """
    u = np.zeros((grid.dim, *grid.spectral_shape), dtype=np.complex128)
    v = np.zeros_like(u) if rate else None
    a_only = not rate and x1 is None
    for i, branch in enumerate("PQ"):
        A, B, Ap, Bp = _propagator(params, grid, t, damping, branch, a_only=a_only)
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
    nonzero datum is split into its Helmholtz parts once.
    """
    grid = u0.grid
    x0, x1 = (_split(F) if F.coeffs.any() else None for F in (u0, u1))
    u, v = _linear_flow(params, grid, t, damping, x0, x1, rate=True)
    return SolverState(
        SpectralField(grid, u, is_mean_zero=True), SpectralField(grid, v, is_mean_zero=True), t
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
    A, B, Ap, Bp = _propagator(params, grid, dt, True, branch)
    c2k2 = _branch_c2k2(params, grid, branch)
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
        k2 = k_squared(grid)
        z = -k2 * dt
        J0 = -np.expm1(z) / np.where(k2 > 0, k2, 1.0)
        return np.exp(z), J0, dt * _phi2(z)
    params = ModelParams(model, epsilon=eps, alpha=alpha)
    P = _etd2_branch(params, grid, dt, "P")
    return P, (_etd2_branch(params, grid, dt, "Q") if model is Model.HNS_EPS_ALPHA else P)


# rows of an `_etd2_branch` table per datum, for the outputs (u, u_t): the
# predictor E (u, v) + J0 g reads (A, A'), (B, B') and (J0u, J0v); the
# corrector K dg reads (Ku, Kv)
_PREDICT = ((0, 2), (1, 3), (4, 5))
_CORRECT = ((6, 7),)


def _by_branch(tables, grid: GridSpec, rows, data, outs) -> None:
    """outs[o] = sum over the data x and Helmholtz branches b of tab_b[row[o]] * (b part of x).

    Each branch sums its data left to right, then the P sum adds the Q sum.
    The data are split into their P and Q parts only when the tables differ,
    one datum at a time, in the grid's workspace.
    """
    P, Q = tables
    ws = _workspace(grid)
    if Q is P:
        _accumulate(P, rows, data, outs, ws.prod)
        return
    sums = ws.sums[: len(outs)]
    for n, (x, row) in enumerate(zip(data, rows)):
        q = _irrotational(x, grid, out=ws.q)
        p = np.subtract(x, q, out=ws.p)
        _accumulate(P, (row,), (p,), outs, ws.prod, first=n == 0)
        _accumulate(Q, (row,), (q,), sums, ws.prod, first=n == 0)
    for o, s in zip(outs, sums):
        o += s


def _accumulate(tab, rows, data, outs, prod, first: bool = True) -> None:
    """outs[o] (+)= sum over the data x of tab[row[o]] * x, left to right; first overwrites outs."""
    for x, row in zip(data, rows):
        for o, r in zip(outs, row):
            if first:
                np.multiply(tab[r], x, out=o)
            else:
                o += np.multiply(tab[r], x, out=prod)
        first = False


def _rhs(state: SolverState, params: ModelParams, nonlinearity: bool):
    """Right-hand side for RK4_FULL as a first-order system."""
    u = state.u
    f = SpectralField(u.grid, _forcing(u.coeffs, u.grid, params, nonlinearity), is_mean_zero=True)
    if params.model is Model.NS:
        return laplacian(u) + f, None
    v = state.u_t
    acc = laplacian(u) - v + f
    if params.model is Model.HNS_EPS_ALPHA:
        acc = acc + (1.0 / params.alpha) * gradient(divergence(u))
    return v, (1.0 / params.epsilon) * acc


def _check_blowup(u: SpectralField, initial_max: float, time: float, partial=None):
    """Raise BlowUpError when max |c| of u leaves 1e12 times its initial value."""
    c = u.coeffs
    m = float(np.max(np.abs(c, out=_workspace(u.grid).magnitude[: len(c)])))
    if not np.isfinite(m) or m > BLOWUP_FACTOR * max(initial_max, 1e-30):
        raise BlowUpError(time, partial=partial)


def step(
    state: SolverState,
    params: ModelParams,
    cfg: StepperConfig,
    nonlinearity: bool = True,
) -> SolverState:
    """Advance one dt with the configured scheme.

    For NS and HNS_EPS the state must be divergence-free, as `run_simulation`
    makes it: their forcing is then the divergence form (see `_forcing`).
    The new state's fields wrap fresh arrays, whose mean is zero; every
    other intermediate of an ETD2 step lives in the grid's workspace.
    """
    if cfg.scheme is Scheme.RK4_FULL:
        return _step_rk4(state, params, cfg, nonlinearity)
    grid = state.u.grid
    dt = cfg.dt
    tables = _etd2_tables(params.model, params.epsilon, params.alpha, grid, dt)
    ws = _workspace(grid)
    u = state.u.coeffs
    mean = (slice(None), *(0,) * grid.dim)

    def wrap(x):
        return SpectralField(grid, x, is_mean_zero=True)

    if params.model is Model.NS:
        E, J0, K = tables
        g0 = _forcing(u, grid, params, nonlinearity, out=ws.g0)
        a = np.multiply(E, u, out=ws.au)
        a += np.multiply(J0, g0, out=ws.prod)
        a[mean] = 0.0
        dg = _forcing(a, grid, params, nonlinearity, out=ws.g1)
        dg -= g0
        unew = np.add(a, np.multiply(K, dg, out=dg))
        unew[mean] = 0.0
        return SolverState(wrap(unew), None, state.time + dt)
    scale = 1.0 / params.epsilon
    g0 = _forcing(u, grid, params, nonlinearity, out=ws.g0)
    np.multiply(scale, g0, out=g0)
    au, av = ws.au, ws.av
    _by_branch(tables, grid, _PREDICT, (u, state.u_t.coeffs, g0), (au, av))
    au[mean] = 0.0
    dg = _forcing(au, grid, params, nonlinearity, out=ws.g1)
    np.multiply(scale, dg, out=dg)
    dg -= g0
    du, dv = ws.increment
    _by_branch(tables, grid, _CORRECT, (dg,), (du, dv))
    unew, vnew = np.add(au, du), np.add(av, dv)
    unew[mean] = vnew[mean] = 0.0
    return SolverState(wrap(unew), wrap(vnew), state.time + dt)


def _step_rk4(state, params, cfg, nonlinearity):
    dt = cfg.dt

    def rhs(st):
        return _rhs(st, params, nonlinearity)

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
    A blow-up raises BlowUpError with the partial series attached; its
    `final` is the state that blew up.
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
    state = SolverState(u0, u1, 0.0)
    initial_max = float(np.max(np.abs(u0.coeffs)))
    n_steps = int(round(cfg.t_end / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * max(cfg.t_end, cfg.dt):
        raise ValueError("t_end must be an integer multiple of dt")

    result = SimulationResult(times=[], probes={k: [] for k in probes}, final=state)

    def record(st):
        result.times.append(st.time)
        for name, fn in probes.items():
            result.probes[name].append(float(fn(st)))
        if keep_states:
            result.states.append(st)

    record(state)
    for i in range(n_steps):
        state = step(state, params, cfg, nonlinearity=nonlinearity)
        result.final = state
        _check_blowup(state.u, initial_max, state.time, partial=result)
        if (i + 1) % cfg.snapshot_every == 0 or i + 1 == n_steps:
            record(state)
    return result


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
    # A, B, A', B' as (branch P/Q, lag t_0..t_M, *modes); data as (branch, component, *modes)
    A, B, Ap, Bp = (np.array([[tab[i] for tab in branch] for branch in tabs]) for i in range(4))
    x0, x1 = _split(u0), _split(u1)
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
