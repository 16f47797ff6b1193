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
solver and the stepper, which couples the nonlinearity with a second-order
exponential (ETD2) rule: no stability restriction from c1, so alpha sweeps
down to 1e-4 stay cheap.  It is the only time stepper.

Every field here is a SpectralField, a box of the rfftn half spectrum of a
real field, and every table is built on the box of the field it multiplies
(see `spectral`).  One exact linear flow, `_linear_flow` on the box of a
given extent, serves `evolve_linear` and the front experiment, and one
Helmholtz split, `_helmholtz_parts`, their data and Picard's sources.
`evolve_linear` and `picard_local_solve` work on the larger extent of their
data.  One forcing, `_forcing` (Leray-projected and mean-free), serves the
stepper and `picard_local_solve`, so both solve one equation; its core
`_rotational` also serves the public `nonlinear_term`.

Box rule: a step runs on the dealias box, the modes with every
|j_axis| <= grid.dealias_cut that the 2/3 rule keeps.  One core,
`_advance`, steps a box state (u, u_t) in place, with the ETD2 tables, i k,
the odd wavevector, 1/|k|^2 and the transforms at the dealias extent.
`run_simulation` dealiases its data and copies it into its box state once;
each recorded state (`_box_state`) wraps a copy of the box, at a snapshot,
at the end and on a blow-up.  The public `step` is the same core between
one `_resize` to the box and one copy, so a state with content outside the
box steps exactly like its `dealias`.  With `dealias_fraction=1` the box is
the whole half spectrum.

Workspace rule: every intermediate of a forcing and of a step is written
with in-place ufuncs into one scratch `_Workspace` of dealias-box arrays per
grid, cached for one grid at a time so a sweep's reference run and its
points share it.  It also holds what a step needs of its grid (i k, the
transforms' pass views) and the ETD2 tables of the last (model, dt) asked
for, dropped before others are built; a run fetches both once.  The
operation order is that of the allocating expressions, and a loop over
components or products is one broadcast call in that per-element order, so
outputs are unchanged to the bit.  The ETD2 tables are complex, so their
products need no cast of the table.  Between two snapshots a run allocates
no array; after the probes of a snapshot have run it resumes from the
recorded state, since a probe may itself step on the grid.  `step`
allocates only the arrays of the state it returns.  No scratch content
survives a call, and nothing returned aliases the workspace.  The workspace
is per process and is not thread-safe: run concurrent solves in separate
processes, as the sweeps do.

One nonlinear core, `_rotational`, serves every model and `nonlinear_term`:
the rotational (Lamb) form -(u.grad)u = u x w - grad(|u|^2/2), w = curl u,
which holds whether or not div u = 0.  It makes one inverse transform of
(u, w) and one forward of u x w and |u|^2: 3 + 3 transformed fields in 2D
and 6 + 4 in 3D.  NS and HNS_EPS Leray-project their forcing, and the
projection removes a gradient to rounding, so they skip the |u|^2 row:
3 + 2 fields in 2D and 6 + 3 in 3D.  On a dealiased grid every product is
quadratic in box fields and the 2/3 rule makes its truncation exact, so
this form agrees with the divergence and general forms mode by mode up to
rounding; the tests keep those as oracles.  With dealias_fraction = 1 no
form is alias-free and the forms differ by aliasing error.
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
    _box_shape,
    _derivatives,
    _irfft,
    _irrotational,
    _mean,
    _mean_free,
    _norm,
    _pass_buffers,
    _pass_scratch,
    _resize,
    _rfft,
    dealias,
    helmholtz_project,
    k_squared,
    sobolev_norm,
)

__all__ = [
    "Model",
    "ModelParams",
    "SolverState",
    "StepperConfig",
    "BlowUpError",
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


class BlowUpError(RuntimeError):
    def __init__(self, time: float, message: str = "", partial=None):
        super().__init__(message or f"solution blew up at t = {time:.6g}")
        self.time = time
        self.partial = partial


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
    s: float = 0.5
    delta: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "model", Model(self.model))
        if not (0 < self.s < 1 and 0 < self.delta < 1):
            raise ValueError("regularity indices s, delta must lie in (0, 1)")
        if self.model is Model.NS:
            if self.epsilon is not None or self.alpha is not None:
                raise ValueError("NS takes neither epsilon nor alpha")
            return
        if self.epsilon is None or not 0 < self.epsilon < math.inf:  # NaN fails every comparison
            raise ValueError(f"{self.model.name} requires a finite epsilon > 0, got {self.epsilon!r}")
        if self.model is Model.HNS_EPS and self.alpha is not None:
            raise ValueError("HNS_EPS takes no alpha")
        if self.model is Model.HNS_EPS_ALPHA and (self.alpha is None or not 0 < self.alpha < math.inf):
            raise ValueError(f"HNS_EPS_ALPHA requires a finite alpha > 0, got {self.alpha!r}")

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
    snapshot_every: int = 1

    def __post_init__(self):
        if not 0 < self.dt < math.inf:  # NaN fails every comparison
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")
        if not 0 <= self.t_end < math.inf:
            raise ValueError(f"t_end must be finite and nonnegative, got {self.t_end!r}")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")


# ---------------------------------------------------------------------------
# nonlinearity
# ---------------------------------------------------------------------------


def nonlinear_term(u: SpectralField) -> SpectralField:
    """Forcing f(u) = -(u.grad)u on the dealias box, pseudo-spectral, from the dealias box of u.

    The rotational form of the stepper's forcing (`_rotational`), with the
    gradient row and the mean kept: a step's f(u) before its model's
    projection.  Like a step it reads only the dealias box of u, so a field
    with content outside the box gives the result of its `dealias`; the
    2/3 rule then makes every product exact there.
    """
    if u.ncomp != u.grid.dim:
        raise InvalidFieldError("nonlinear term expects a full velocity field")
    ws = _workspace(u.grid)
    box = _resize(u.coeffs, u.grid, ws.cut)
    return SpectralField(u.grid, _rotational(box, ws, np.empty_like(box)))


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
    """Scratch arrays and box constants of one grid for a forcing and an ETD2 step.

    Spectral arrays have the dealias box's shape.  The phase region is sized
    by its largest phase and shared in time.  A forcing (`_rotational`) uses
    it for its transform buffers: the spectra `fhat`, whose rows are also the
    inverse transform's input stack (u, curl u), the sample rows `rows`,
    which hold the samples, the products and one scratch row, and the
    transforms' pass buffers `work`.  The curl's scratch `tmp` reuses the
    memory of `rows`, which holds no samples before the inverse transform,
    the only time `tmp` is used.  The Helmholtz split of the
    predictor and corrector then uses it for one datum's parts `q` and `p`, the
    (u, u_t) pair `prod` of one product, the Q-branch sums `sums` and the
    corrector's `increment`, and the blow-up check for |c|.  The step region
    holds what lives across a step's two forcings: the forcing g0 of the
    state, the predictor pair `a` = (au, av) and the forcing g1 of au; and
    `state`, the (u, u_t) box that `step` fills and that a run keeps from
    its first step to its last.  Nothing else in it outlives the call that
    fills it; Picard borrows g0 and g1 for an iterate's box and its forcing.

    The box constants are looked up once per grid: the dealias extent `cut`,
    i k and -i k/2 there, the transforms' pass views of `work` at that
    extent and the k = 0 index.  `tables` keeps the ETD2 tables of one
    (model, dt).
    """

    def __init__(self, grid: GridSpec):
        d, n, cut = grid.dim, grid.n_per_axis, grid.dealias_cut
        m = d * (d + 1) // 2  # the rows of (u, curl u)
        H, R = grid.box_shape, grid.shape
        c, f = np.complex128, np.float64
        vec, pair = ((d, *H), c), ((2, d, *H), c)
        # one inverse of (u, curl u); one forward of u x curl u, with or without |u|^2
        batches = ((m, True), (d, False), (d + 1, False))
        passes = max(_pass_scratch(k, d, n, cut, inverse) for k, inverse in batches)
        forcing = (((m, *H), c), ((m + d + 2, *R), f), ((passes,), c))
        split = (vec, vec, pair, pair, pair)
        phase = np.empty(max(_words(forcing), _words(split)))
        self.fhat, self.rows, self.work = _views(phase, forcing)
        (self.tmp,) = _views(self.rows.reshape(-1), [(H, c)])
        self.q, self.p, self.prod, self.sums, self.increment = _views(phase, split)
        (self.magnitude,) = _views(phase, [((d, *H), f)])
        step = (vec, pair, vec, pair)
        self.g0, self.a, self.g1, self.state = _views(np.empty(_words(step)), step)
        self.grid, self.cut = grid, cut
        self.ik = _derivatives(grid, cut)
        # the pass views of the dealias-extent transforms, by (components, inverse)
        self.passes = {
            (k, inverse): _pass_buffers(k, d, n, cut, inverse, self.work) for k, inverse in batches
        }
        self.minus_half_ik = tuple(-0.5 * k for k in self.ik)  # F[|u|^2] to -F[grad(|u|^2 / 2)]
        self.mean = _mean(grid)  # the k = 0 mode of a vector or of a pair
        self._table_key = self._tables = None

    def tables(self, params: ModelParams, dt: float):
        """The `_etd2_tables` of params and dt on this grid, built on the first request.

        Only the last request's tables are kept, and they are dropped before
        others are built, so a sweep's runs never hold two sets at once.
        """
        key = (params.model, params.epsilon, params.alpha, dt)
        if key != self._table_key:
            self._table_key = self._tables = None
            self._tables = _etd2_tables(*key[:3], self.grid, dt)
            self._table_key = key
        return self._tables


@functools.lru_cache(maxsize=1)
def _workspace(grid: GridSpec) -> _Workspace:
    """The scratch workspace of grid, one grid at a time, so a sweep's runs share it."""
    return _Workspace(grid)


# the rows (j, k) of the curl w_r = d_j u_k - d_k u_j: the scalar w in 2D, (w_0, w_1, w_2) in 3D
_CURL = {2: ((0, 1),), 3: ((1, 2), (2, 0), (0, 1))}


def _rotational(u: np.ndarray, ws: _Workspace, out: np.ndarray, gradient: bool = True) -> np.ndarray:
    """Dealias box of f(u) = u x w - grad(|u|^2/2), w = curl u, into out, from the dealias box of u.

    The rotational (Lamb) form of f, which holds for fields with nonzero
    divergence (see the module notes): one inverse transform of the stack
    (u, w), d(d+1)/2 rows, and one forward of the d products u x w and,
    with gradient, of |u|^2, pruned to the box.  Without gradient the
    result is u x w alone, whose Leray projection is that of f to rounding:
    i k is the projection's odd wavevector, so P annihilates the gradient
    row.  The intermediates live in the grid's workspace ws, the samples
    and products in its `rows`; out must not be one of them.
    """
    grid, ik, tmp = ws.grid, ws.ik, ws.tmp
    d, n = grid.dim, grid.n_per_axis
    m, nprods = d * (d + 1) // 2, d + 1 if gradient else d
    stack = ws.fhat[:m]
    phys, prods, scratch = ws.rows[:m], ws.rows[m : m + nprods], ws.rows[m + d + 1]
    stack[:d] = u
    for w, (j, k) in zip(stack[d:], _CURL[d]):
        np.multiply(ik[j], u[k], out=w)
        w -= np.multiply(ik[k], u[j], out=tmp)
    _irfft(stack, n, out=phys, work=ws.passes[m, True])
    v, w = phys[:d], phys[d:]
    if d == 2:  # u x w = (u_1 w, -u_0 w): the products (u_1 w, u_0 w), the sign taken below
        np.multiply(v[::-1], w, out=prods[:2])
    else:
        for i, (j, k) in enumerate(_CURL[3]):  # (u x w)_i = u_j w_k - u_k w_j
            np.multiply(v[j], w[k], out=prods[i])
            prods[i] -= np.multiply(v[k], w[j], out=scratch)
    if not gradient:
        _rfft(prods, ws.cut, out=out, work=ws.passes[d, False])
        if d == 2:
            np.negative(out[1], out=out[1])
        return out
    np.multiply(v[0], v[0], out=prods[d])  # |u|^2
    for i in range(1, d):
        prods[d] += np.multiply(v[i], v[i], out=scratch)
    fhat = _rfft(prods, ws.cut, out=ws.fhat[: d + 1], work=ws.passes[d + 1, False])
    for i in range(d):  # -i k_i |u|^2 / 2
        np.multiply(ws.minus_half_ik[i], fhat[d], out=out[i])
    if d == 2:
        out[0] += fhat[0]
        out[1] -= fhat[1]
    else:
        out += fhat[:3]
    return out


def _forcing(
    u: np.ndarray,
    ws: _Workspace,
    params: ModelParams,
    nonlinearity: bool,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Dealias box of the model forcing f(u) from that of u, Leray-projected for the constrained models.

    Every model takes the rotational form (`_rotational`) at every dealias
    fraction.  The constrained models project it, so they skip its |u|^2
    row, whose gradient the projection removes: d(d+1)/2 inverse and d
    forward transforms, against d + 1 forward for the penalized model.
    The mean of f is discarded: evolved fields are kept mean-zero, so the
    small net force the compressible nonlinearity would exert on the torus
    (absent on the whole space) is not allowed to drive a mean flow.
    The result goes to out, fresh if None; the intermediates live in ws.
    """
    if out is None:
        out = np.empty_like(u)
    if not nonlinearity:
        out.fill(0.0)
        return out
    constrained = params.model is not Model.HNS_EPS_ALPHA
    f = _rotational(u, ws, out, gradient=not constrained)
    if constrained:
        f -= _irrotational(f, ws.grid, out=ws.q)
    f[ws.mean] = 0.0
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


def _branch_c2k2(params: ModelParams, grid: GridSpec, branch: str, cut: int) -> np.ndarray:
    """c^2 k^2 of a Helmholtz branch on the box of extent cut: speed c2 on P; on Q, c1 if penalized, else c2."""
    c = params.c1 if branch == "Q" and params.model is Model.HNS_EPS_ALPHA else params.c2
    return c * c * k_squared(grid, cut)


def _propagator(
    params: ModelParams,
    grid: GridSpec,
    t: float,
    damping: bool,
    branch: str,
    cut: int,
    a_only: bool = False,
):
    """The per-mode propagator table (A, B, A', B') at t of one Helmholtz branch, on the box of extent cut.

    Data (a, b) of eps l'' + gamma l' + eps c^2 k^2 l = 0 evolve to a A + b B,
    with gamma = 1 when damped and 0 for the pure wave.  k = 0 keeps
    _mode_functions' own limits (A = 1, A' = 0; undamped B = t, B' = 1).
    One branch per call, so a caller can apply it before building the next;
    a_only forms A alone.
    """
    gamma = 1.0 if damping else 0.0
    c2k2 = _branch_c2k2(params, grid, branch, cut)
    return _mode_functions(t, params.epsilon, gamma, c2k2, a_only)


def _helmholtz_parts(x: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """The Helmholtz parts (x - Q x, Q x) of the vector box x, into out (fresh if None; x may be out[0])."""
    if out is None:
        out = np.empty((2, *x.shape), dtype=np.complex128)
    _irrotational(x, grid, out=out[1])
    np.subtract(x, out[1], out=out[0])
    return out


def _split(F: SpectralField, cut: int) -> np.ndarray:
    """The Helmholtz parts (P F, Q F) of F's box of extent cut >= F's, stacked."""
    return _helmholtz_parts(_resize(F.coeffs, F.grid, cut), F.grid)


def _linear_flow(params: ModelParams, grid: GridSpec, t: float, damping: bool, x0, x1, rate: bool, cut: int):
    """Box coefficients of u(t) and, if rate, u_t(t) of the linear flow from split data on the box of extent cut.

    x0, x1 are the split parts (P, Q) of the boxes of u0 and u1 (None for
    zero data, which costs nothing).  Without rate u_t is None, and without
    rate and u1 only the table's A is formed.
    """
    u = np.zeros((grid.dim, *_box_shape(grid.n_per_axis, grid.dim, cut)), dtype=np.complex128)
    v = np.zeros_like(u) if rate else None
    a_only = not rate and x1 is None
    for i, branch in enumerate("PQ"):
        A, B, Ap, Bp = _propagator(params, grid, t, damping, branch, a_only=a_only, cut=cut)
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
    nonzero datum is split into its Helmholtz parts once, on the larger
    extent of the two, where the solution lives.
    """
    grid, cut = u0.grid, max(u0.cut, u1.cut)
    x0, x1 = (_split(F, cut) if F.coeffs.any() else None for F in (u0, u1))
    u, v = _linear_flow(params, grid, t, damping, x0, x1, rate=True, cut=cut)
    u[_mean(grid)] = v[_mean(grid)] = 0.0
    return SolverState(SpectralField(grid, u), SpectralField(grid, v), t)


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


def _etd2_branch(params: ModelParams, grid: GridSpec, dt: float, branch: str, cut: int) -> tuple:
    """ETD2 table of one Helmholtz branch on the box of extent cut, as complex (u, u_t) row pairs.

    For y' = L y + (0, g)^T with L = [[0, 1], [-c^2 k^2, -1/eps]] the update is

        a      = E y_n + J0 g_n
        y_next = a + K (g(a) - g_n)

    where E = exp(L dt) is the damped propagator (A, B; A', B'),
    J0 = Int_0^dt exp(L tau) dtau (second column) and K = J0 - J1/dt with
    J1 = Int_0^dt tau exp(L tau) dtau.  The integrals come from L^-1 algebra
    on the propagator entries, so the kernel integration is exact and the
    oscillatory branch costs nothing in stability.

    The table is the pairs (A, A'), (B, B'), (J0u, J0v) and (Ku, Kv), which
    multiply u, u_t, g and g(a) - g_n, each of shape (2, 1, *box): the pair
    axis gives the (u, u_t) outputs, the unit axis broadcasts over
    components.  They are two-row windows of one array of the rows
    A, A', J0u, B, B', Ku, Kv, which holds J0v = B once.  Complex entries
    spare numpy a cast of the table in every product; the cast is exact, so
    the products are those of the real table.
    """
    A, B, Ap, Bp = _propagator(params, grid, dt, True, branch, cut=cut)
    c2k2 = _branch_c2k2(params, grid, branch, cut)
    ge = 1.0 / params.epsilon
    safe = np.where(c2k2 > 0, c2k2, 1.0)  # k = 0 multiplies only zero
    j0u = (1.0 - Bp - ge * B) / safe
    l1u = (-ge * B - Bp) / safe
    l2u = (-ge * j0u - B) / safe
    j1u = dt * l1u - l2u
    j1v = dt * B - j0u
    rows = (A, Ap, j0u, B, Bp, j0u - j1u / dt, B - j1v / dt)
    rows = np.array(rows, dtype=np.complex128)[:, np.newaxis]
    return rows[0:2], rows[3:5], rows[2:4], rows[5:7]


def _etd2_tables(model: Model, eps: float | None, alpha: float | None, grid: GridSpec, dt: float):
    """ETD2 tables of one (model, grid, dt) on the dealias box, where a step works, complex.

    NS, u' = -k^2 u + g per mode: (E, J0, K).  The hyperbolic models: the
    (P, Q) pair of `_etd2_branch` tables; Q is the P table object unless the
    model is penalized, since the branch speeds are then equal.  The grid's
    workspace keeps the tables of the last (model, dt) asked for.
    """
    cut = grid.dealias_cut
    if model is Model.NS:
        k2 = k_squared(grid, cut)
        z = -k2 * dt
        J0 = -np.expm1(z) / np.where(k2 > 0, k2, 1.0)
        return tuple(t.astype(np.complex128) for t in (np.exp(z), J0, dt * _phi2(z)))
    params = ModelParams(model, epsilon=eps, alpha=alpha)
    P = _etd2_branch(params, grid, dt, "P", cut)
    return P, (_etd2_branch(params, grid, dt, "Q", cut) if model is Model.HNS_EPS_ALPHA else P)


# the `_etd2_branch` row pair each datum reads: the predictor E (u, v) + J0 g
# reads (A, A'), (B, B') and (J0u, J0v); the corrector K dg reads (Ku, Kv)
_PREDICT = (0, 1, 2)
_CORRECT = (3,)


def _by_branch(tables, ws: _Workspace, rows, data, out: np.ndarray) -> None:
    """out = sum over the data x and Helmholtz branches b of tab_b[row] * (b part of x).

    out is a (u, u_t) pair.  Each branch sums its data left to right, then
    the P sum adds the Q sum.  The data are dealias boxes, split into their
    P and Q parts only when the tables differ, one datum at a time, in the
    workspace ws.
    """
    P, Q = tables
    if Q is P:
        _accumulate(P, rows, data, out, ws.prod)
        return
    for n, (x, row) in enumerate(zip(data, rows)):
        q = _irrotational(x, ws.grid, out=ws.q)
        p = np.subtract(x, q, out=ws.p)
        _accumulate(P, (row,), (p,), out, ws.prod, first=n == 0)
        _accumulate(Q, (row,), (q,), ws.sums, ws.prod, first=n == 0)
    out += ws.sums


def _accumulate(tab, rows, data, out, prod, first: bool = True) -> None:
    """out (+)= sum over the data x of tab[row] * x, left to right, one pair per datum; first overwrites out."""
    for x, row in zip(data, rows):
        if first:
            np.multiply(tab[row], x, out=out)
        else:
            out += np.multiply(tab[row], x, out=prod)
        first = False


def _check_blowup(u: np.ndarray, initial_max: float, out: np.ndarray | None = None) -> bool:
    """Whether max |c| over the coefficients u is not finite or exceeds 1e12 times its initial value.

    |c| goes to out (fresh if None).
    """
    m = float(np.maximum.reduce(np.abs(u, out=out), axis=None))
    return not np.isfinite(m) or m > BLOWUP_FACTOR * max(initial_max, 1e-30)


def _advance(ws: _Workspace, tables, params: ModelParams, nonlinearity: bool, x: np.ndarray) -> None:
    """Advance the box state x one dt in place, with the ETD2 tables of its model and dt.

    x holds the dealias boxes (u,) for NS and (u, u_t) otherwise; the result
    has zero mean.  Both forcings, the Helmholtz splits, the predictor and
    the corrector run in the workspace ws.
    """
    u = x[0]
    if params.model is Model.NS:
        E, J0, K = tables
        g0 = _forcing(u, ws, params, nonlinearity, out=ws.g0)
        a = np.multiply(E, u, out=ws.a[0])
        a += np.multiply(J0, g0, out=ws.prod[0])
        a[ws.mean] = 0.0
        dg = _forcing(a, ws, params, nonlinearity, out=ws.g1)
        dg -= g0
        np.add(a, np.multiply(K, dg, out=dg), out=u)
    else:
        scale = 1.0 / params.epsilon
        g0 = _forcing(u, ws, params, nonlinearity, out=ws.g0)
        np.multiply(scale, g0, out=g0)
        a = ws.a
        _by_branch(tables, ws, _PREDICT, (u, x[1], g0), a)
        a[0][ws.mean] = 0.0
        dg = _forcing(a[0], ws, params, nonlinearity, out=ws.g1)
        np.multiply(scale, dg, out=dg)
        dg -= g0
        _by_branch(tables, ws, _CORRECT, (dg,), ws.increment)
        np.add(a, ws.increment, out=x)
    x[ws.mean] = 0.0


def _box_state(x: np.ndarray, grid: GridSpec, time: float) -> SolverState:
    """The state at time whose fields wrap a copy of the box rows x: u and, if present, u_t."""
    x = x.copy()
    u_t = SpectralField(grid, x[1]) if len(x) > 1 else None
    return SolverState(SpectralField(grid, x[0]), u_t, time)


def step(
    state: SolverState,
    params: ModelParams,
    cfg: StepperConfig,
    nonlinearity: bool = True,
) -> SolverState:
    """Advance one dt with the exact-linear exponential (ETD2) rule.

    A step reads only the state's dealias box, the modes with every
    |j_axis| <= grid.dealias_cut, and returns fields on that box: content
    outside the box is dropped, so a state steps exactly like its
    `dealias`.  For NS and HNS_EPS the state should also be divergence-free,
    as `run_simulation` makes it: the models live on such fields, and their
    forcing is Leray-projected (see `_forcing`).  The step resizes the state
    to the box, advances it with the core that `run_simulation` loops over,
    in the grid's workspace, and copies it out; the new state's fields wrap
    fresh arrays, whose mean is zero.
    """
    grid = state.u.grid
    ws = _workspace(grid)
    x = ws.state[: 1 if params.model is Model.NS else 2]
    for F, box in zip((state.u, state.u_t), x):
        _resize(F.coeffs, grid, ws.cut, out=box)
    _advance(ws, ws.tables(params, cfg.dt), params, nonlinearity, x)
    return _box_state(x, grid, state.time + cfg.dt)


@dataclass
class SimulationResult:
    """Recorded times and probe series, the last state, and the steps taken.

    `steps` counts the step that blew up, if one did.
    """

    times: list[float]
    probes: dict[str, list[float]]
    final: SolverState
    states: list[SolverState] = field(default_factory=list)
    steps: int = 0


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
    `final` is the state that blew up.  Every state is on the dealias box.
    Between snapshots the state stays in the grid's workspace and is
    stepped in place by the core of `step`; fields are built only to
    record, at the end and on a blow-up.
    """
    grid = u0.grid
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
    if n_steps == 0:
        return result
    ws = _workspace(grid)
    tables = ws.tables(params, cfg.dt)
    x = ws.state[: 1 if params.model is Model.NS else 2]

    def load(st):
        for F, box in zip((st.u, st.u_t), x):
            box[...] = F.coeffs

    load(state)
    time = state.time
    for i in range(n_steps):
        _advance(ws, tables, params, nonlinearity, x)
        time += cfg.dt
        result.steps = i + 1
        if _check_blowup(x[0], initial_max, out=ws.magnitude):
            result.final = _box_state(x, grid, time)
            raise BlowUpError(time, partial=result)
        if (i + 1) % cfg.snapshot_every == 0 or i + 1 == n_steps:
            result.final = _box_state(x, grid, time)
            record(result.final)
            if probes:  # a probe may step on this grid: resume from the recorded state
                load(result.final)
    return result


# ---------------------------------------------------------------------------
# Picard local solver
# ---------------------------------------------------------------------------


@dataclass
class PicardResult:
    state: SolverState
    xt_norms: list[float]
    distances: list[float]
    iterations: int


def picard_time_bound(u0: SpectralField, u1: SpectralField, params: ModelParams) -> float:
    """Largest horizon on which the Duhamel map is expected to contract.

    The damping source enters the fixed-point map through kernels carrying a
    1/eps factor, so the contraction window is taken as half of eps divided by
    the data bracket of the local-existence estimate (all four A/B data terms).
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
    return 0.5 * eps / (1.0 + bracket)


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

    with the undamped branch propagators A, B, composite-trapezoid
    quadrature for the integral and the stepper's forcing f, `_forcing` of
    each iterate's dealias box, on the data less their mean and, for HNS_EPS,
    less their gradient part, as `run_simulation` projects its data.
    Iteration stops when successive iterates are closer than tol in the X_T
    norm; three consecutive distance increases raise ContractionFailureError,
    exhaustion raises NoConvergenceError.
    """
    if not params.is_hyperbolic:
        raise ValueError("the Picard solver addresses the hyperbolic models")
    if not (_mean_free(u0) and _mean_free(u1)):
        raise InvalidFieldError("Picard data must be mean-zero")
    if enforce_time_bound:
        bound = picard_time_bound(u0, u1, params)
        if T > bound:
            raise ValueError(f"T = {T:.4g} exceeds the contraction bound {bound:.4g}")
    grid = u0.grid
    ws = _workspace(grid)
    cut = max(u0.cut, u1.cut, grid.dealias_cut)
    eps = params.epsilon
    sig = grid.dim / 2.0 + params.delta
    times = np.linspace(0.0, T, n_mesh + 1)
    tabs = [[_propagator(params, grid, float(t), False, b, cut=cut) for t in times] for b in "PQ"]
    # A, B, A', B' as (branch P/Q, lag t_0..t_M, *modes); data as (branch, component, *modes)
    A, B, Ap, Bp = (np.array([[tab[i] for tab in branch] for branch in tabs]) for i in range(4))
    x0, x1 = _split(u0, cut), _split(u1, cut)
    x0[ws.mean] = x1[ws.mean] = 0.0  # a mean within the check's tolerance of 0 is 0
    if params.model is Model.HNS_EPS:  # the divergence-free parts alone, as run_simulation projects them
        x0[1] = x1[1] = 0.0
    branch_sum = functools.partial(np.einsum, "bm...,bc...->mc...")
    base_u = branch_sum(A, x0) + branch_sum(B, x1)
    base_v = branch_sum(Ap, x0) + branch_sum(Bp, x1)

    # composite trapezoid over s_0..s_m of B(t_m - s) g(s) / eps: the source
    # weights halve s_0, the lag weights halve s = t_m
    trap = np.ones(n_mesh + 1)
    trap[0] = 0.5
    src_w = (T / n_mesh / eps * trap).reshape(-1, *(1,) * (grid.dim + 1))
    B, Bp = (X * trap.reshape(-1, *(1,) * grid.dim) for X in (B, Bp))

    def xt_norm(us: np.ndarray, vs: np.ndarray) -> float:
        """sup over the mesh of H^(n/2+d) + H^(n/2+d-1) of u plus H^(n/2+d-1) of du/dt."""
        hi = max(_norm(u, grid, sig) for u in us)
        lo = max(_norm(u, grid, sig - 1.0) for u in us)
        vt = max(_norm(v, grid, sig - 1.0) for v in vs)
        return hi + lo + vt

    us, vs = np.zeros_like(base_u), np.zeros_like(base_v)  # (mesh point, component, *box)
    xt_norms: list[float] = []
    distances: list[float] = []
    increases = 0
    g = np.empty((2, *base_u.shape), dtype=np.complex128)  # weighted sources, per branch
    for it in range(max_iter):
        for m in range(n_mesh + 1):
            f = _forcing(_resize(us[m], grid, ws.cut, out=ws.g0), ws, params, nonlinearity, out=ws.g1)
            src = np.subtract(_resize(f, grid, cut, out=g[0, m]), vs[m], out=g[0, m])
            _helmholtz_parts(src, grid, out=g[:, m])
        g *= src_w
        new_u, new_v = base_u.copy(), base_v.copy()
        for lag in range(n_mesh + 1):
            first = max(lag, 1)  # no integral at t_0
            j = slice(first - lag, n_mesh + 1 - lag)
            new_u[first:] += np.einsum("b...,bjc...->jc...", B[:, lag], g[:, j])
            new_v[first:] += np.einsum("b...,bjc...->jc...", Bp[:, lag], g[:, j])
        dist = xt_norm(np.subtract(new_u, us, out=us), np.subtract(new_v, vs, out=vs))  # into the old iterates
        us, vs = new_u, new_v
        xt_norms.append(xt_norm(us, vs))
        distances.append(dist)
        if len(distances) >= 2 and dist > distances[-2]:
            increases += 1
            if increases >= 3:
                raise ContractionFailureError((xt_norms, distances))
        else:
            increases = 0
        if dist <= tol:
            state = _box_state(np.stack((us[-1], vs[-1])), grid, T)
            return PicardResult(state, xt_norms, distances, it + 1)
    raise NoConvergenceError((xt_norms, distances))
