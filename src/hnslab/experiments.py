"""Parameter sweeps and measurements confronting the convergence claims with numerics.

Four experiments:

* alpha sweep: penalized runs against the eps-only reference with identical
  divergence-free data; records sup-in-time modulated energy and the
  time-integrated squared divergence, and fits log-log slopes against alpha.
* epsilon sweep: damped-wave runs against the NS reference; records the
  sup-in-time squared Sobolev difference at the critical index and fits its
  slope against eps.
* finite-speed: localized branch-pure wave data evolved exactly (nonlinearity
  off), with the thresholded support radius checked against the light cone
  R + c1 t and the measured front speed against the branch speeds.
* rate fitting: plain least squares on (log x, log y).

Both sweeps run one driver: the data are built once, the reference runs once
with its states kept, every point runs against those states, then the fits.
What differs by variable is data: the reference model, the points' dt, the
per-point epsilon cutoff, and the modulated-energy probe (alpha only).  Sweep
points run sequentially or in a process pool, whose workers receive the data
and the reference states once, when they start, so a task carries only its
value and step; results merge by sweep index so output is independent of
completion order, and all CSV text is formatted deterministically.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .energies import modulated_energy
from .solvers import (
    Model,
    ModelParams,
    StepperConfig,
    _helmholtz_parts,
    _linear_flow,
    run_simulation,
)
from .spectral import (
    GridSpec,
    InvalidFieldError,
    PhysicalField,
    SpectralField,
    _derivatives,
    _irfft,
    _pass_buffers,
    _rfft,
    _torus_distance_sq,
    dealias,
    divergence,
    helmholtz_project,
    k_abs,
    random_band_limited,
    read_snapshot,
    sobolev_norm,
    to_spectral,
)

__all__ = [
    "InitialDataSpec",
    "SweepConfig",
    "SweepPoint",
    "SweepResult",
    "RateFit",
    "BumpSpec",
    "FrontReport",
    "InvalidWindowError",
    "DEFAULT_ALPHA_GRID",
    "DEFAULT_EPSILON_GRID",
    "build_initial_data",
    "taylor_green",
    "suggest_dt",
    "fit_rate",
    "sweep_alpha",
    "sweep_epsilon",
    "finite_speed_experiment",
    "support_radius",
]

DEFAULT_ALPHA_GRID = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
DEFAULT_EPSILON_GRID = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)

SWEEP_CSV_HEADER = (
    "sweep_var,value,T_final,sup_modulated_energy,div_l2t_l2,sup_sobolev_diff_sq,run_id"
)
# fit name -> the SweepPoint field it fits, in the order of the CSV's rate_fit row
_FITTED = {
    "modulated_energy": "sup_modulated_energy",
    "div_l2t_l2": "div_l2t_l2",
    "sobolev_diff_sq": "sup_sobolev_diff_sq",
}


class InvalidWindowError(RuntimeError):
    """Front experiment window reached the antipode (wrap-around)."""


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InitialDataSpec:
    """Recipe for (u0, u1): seeded random band-limited, Taylor-Green, or file.

    epsilon_cutoff zeroes modes with sqrt(eps) |k| >= 1 from u0, the standard
    well-prepared-data choice (the reference field keeps them).
    """

    kind: str = "random"  # random | taylor_green | file
    seed: int | None = None
    amplitude: float = 1.0
    kmin: int = 1
    kmax: int | None = None
    decay: float = 2.0
    epsilon_cutoff: bool = False
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("random", "taylor_green", "file"):
            raise ValueError(f"unknown initial data kind {self.kind!r}")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random initial data requires a seed")
        if self.kind == "file" and self.path is None:
            raise ValueError("file initial data requires a path")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.decay)):
            raise ValueError(f"amplitude and decay must be finite, got {self.amplitude!r} and {self.decay!r}")
        if self.kmin < 1:  # the |j|^-decay envelope is infinite at the mean, j = 0
            raise ValueError(f"kmin must be >= 1, got {self.kmin}")
        if self.kmax is not None and self.kmax < self.kmin:  # an empty band: the zero field
            raise ValueError(f"kmax = {self.kmax} is below kmin = {self.kmin}")


def taylor_green(grid: GridSpec, amplitude: float = 1.0) -> SpectralField:
    """Classical div-free trigonometric vortex (2D, or columnar in 3D)."""
    mesh = grid.meshgrid()
    x, y = mesh[0], mesh[1]
    if grid.dim == 2:
        vals = np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)])
    else:
        z = np.zeros(grid.shape)
        vals = np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y), z])
    return to_spectral(PhysicalField(grid, amplitude * vals))


def _epsilon_cutoff(F: SpectralField, epsilon: float) -> SpectralField:
    keep = np.sqrt(epsilon) * k_abs(F.grid, F.cut) < 1.0
    return SpectralField(F.grid, F.coeffs * keep)


def build_initial_data(
    spec: InitialDataSpec, grid: GridSpec, params: ModelParams
) -> tuple[SpectralField, SpectralField]:
    """Divergence-free mean-zero u0 (optionally eps-filtered) and u1 = 0."""
    if spec.kind == "random":
        rng = np.random.default_rng(spec.seed)
        u0 = random_band_limited(
            grid,
            rng,
            ncomp=grid.dim,
            kmin=spec.kmin,
            kmax=spec.kmax,
            decay=spec.decay,
            amplitude=spec.amplitude,
            divergence_free=True,
        )
    elif spec.kind == "taylor_green":
        u0 = taylor_green(grid, spec.amplitude)
    else:  # file
        loaded, _ = read_snapshot(spec.path)
        g = loaded.grid
        if replace(g, dealias_fraction=grid.dealias_fraction) != grid:
            raise InvalidFieldError(
                f"snapshot grid (dim {g.dim}, n {g.n_per_axis}, L {g.domain_length:.17g}) differs "
                f"from the configured grid (dim {grid.dim}, n {grid.n_per_axis}, "
                f"L {grid.domain_length:.17g})"
            )
        if isinstance(loaded, PhysicalField):
            loaded = to_spectral(loaded)
        # on the configured grid, so that its dealias fraction applies
        u0 = helmholtz_project(SpectralField(grid, loaded.coeffs), "P")
    u0 = dealias(u0).remove_mean()
    if spec.epsilon_cutoff:
        if params.epsilon is None:
            raise ValueError("epsilon_cutoff needs a hyperbolic model")
        u0 = _epsilon_cutoff(u0, params.epsilon)
    return u0, SpectralField.zeros(grid, grid.dim)


def suggest_dt(params: ModelParams, grid: GridSpec, t_snap: float, resolve: float = 0.5) -> float:
    """Snapshot-aligned dt resolving the divergence-free branch oscillations.

    The exponential stepper integrates the linear part exactly, so only the
    frequencies carrying observable amplitude need resolving: the P-branch
    rate c2 * k for hyperbolic models, the advective rate k of a unit
    velocity for NS.  The fast penalized branch is quasistatic under the
    exact source kernels and does not constrain dt.
    """
    kmax = grid.k_max_dealiased
    rate = params.c2 * kmax if params.is_hyperbolic else kmax
    dt_target = resolve / rate
    return t_snap / math.ceil(t_snap / dt_target)


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


@dataclass
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    points: list[tuple[float, float]]

    def csv_row(self, label: str) -> str:
        return f"{label},{self.slope:.17g},{self.intercept:.17g},{self.r_squared:.17g}"


def fit_rate(points: list[tuple[float, float]]) -> RateFit:
    """Least-squares line through (log x, log y); needs >= 3 positive points."""
    if len(points) < 3:
        raise ValueError("rate fit needs at least 3 points")
    xs = np.asarray([p[0] for p in points], dtype=float)
    ys = np.asarray([p[1] for p in points], dtype=float)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("rate fit requires strictly positive coordinates")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(float(slope), float(intercept), float(min(r2, 1.0)), list(zip(lx, ly)))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    sweep_variable: str  # "alpha" | "epsilon"
    values: tuple[float, ...]
    fixed: ModelParams
    initial_data: InitialDataSpec
    T_final: float
    grid: GridSpec
    seed: int
    snapshot_every_t: float = 0.025
    dt: float | None = None  # None: suggest_dt per run
    workers: int = 1
    resolve: float = 0.5

    def __post_init__(self):
        vals = tuple(self.values)
        if len(vals) < 3:
            raise ValueError("sweep needs at least 3 values")
        if not all(math.isfinite(v) for v in vals):  # a NaN would pass the order and sign tests below
            raise ValueError(f"sweep values must be finite, got {vals!r}")
        for name in ("T_final", "snapshot_every_t", "resolve"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)!r}")
        if any(b >= a for a, b in zip(vals, vals[1:])):
            raise ValueError("sweep values must be strictly decreasing")
        if vals[-1] <= 0:
            raise ValueError("sweep values must be positive")
        if math.log10(vals[0] / vals[-1]) < 2.0 - 1e-9:
            raise ValueError("sweep values must span at least 2 decades")
        # reference and sweep runs pair states by snapshot slot, so the final
        # time must itself be a snapshot time
        ratio = self.T_final / self.snapshot_every_t
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("T_final must be an integer multiple of snapshot_every_t")
        # and so must a given dt's multiples be (suggest_dt is aligned by
        # construction): reference and sweep trajectories are paired slot by
        # slot, and a dt that does not divide the interval would compare
        # misaligned states
        if self.dt is not None:
            if not self.dt > 0:
                raise ValueError(f"dt must be positive, got {self.dt!r}")
            cad = max(1, round(self.snapshot_every_t / self.dt))
            if abs(cad * self.dt - self.snapshot_every_t) > 1e-9 * self.snapshot_every_t:
                raise ValueError(
                    f"dt = {self.dt:.6g} does not divide snapshot_every_t = {self.snapshot_every_t:.6g}"
                )


@dataclass
class SweepPoint:
    value: float
    sup_modulated_energy: float
    div_l2t_l2: float
    sup_sobolev_diff_sq: float
    run_id: str

    def csv_row(self, var: str, T: float) -> str:
        return (
            f"{var},{self.value:.17g},{T:.17g},{self.sup_modulated_energy:.17g},"
            f"{self.div_l2t_l2:.17g},{self.sup_sobolev_diff_sq:.17g},{self.run_id}"
        )


@dataclass
class SweepResult:
    config: SweepConfig
    points: list[SweepPoint]
    fits: dict[str, RateFit]

    def to_csv(self) -> str:
        var = self.config.sweep_variable
        lines = [SWEEP_CSV_HEADER]
        for p in self.points:
            lines.append(p.csv_row(var, self.config.T_final))
        slopes = ",".join(
            f"{self.fits[name].slope:.17g}" if name in self.fits else "nan" for name in _FITTED
        )
        lines.append(f"rate_fit,nan,{self.config.T_final:.17g},{slopes},slopes")
        return "\n".join(lines) + "\n"


def _point_run_id(cfg: SweepConfig, value: float) -> str:
    """Hash of what a point's numbers depend on, its data spec as `_sweep_data` reads it.

    The model is hashed as its repr read while `ModelParams` had a viscosity
    field (always 1), so the ids stay those of earlier versions.
    """
    fixed = repr(cfg.fixed).replace(", s=", ", viscosity=1.0, s=")
    payload = (
        f"{cfg.sweep_variable}={value:.17g};seed={cfg.seed};grid={cfg.grid};"
        f"fixed={fixed};data={_data_spec(cfg)};T={cfg.T_final:.17g}"
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _model_for(cfg: SweepConfig, value: float | None) -> ModelParams:
    """The model at a sweep value; None gives the reference: eps-only (alpha) or NS (epsilon)."""
    alpha = value if cfg.sweep_variable == "alpha" else None
    eps = value if cfg.sweep_variable == "epsilon" else cfg.fixed.epsilon
    kind = Model.NS if eps is None else Model.HNS_EPS if alpha is None else Model.HNS_EPS_ALPHA
    return ModelParams(kind, epsilon=eps, alpha=alpha, s=cfg.fixed.s, delta=cfg.fixed.delta)


def _aligned_dt(cfg: SweepConfig, params: ModelParams) -> tuple[float, int]:
    """dt and snapshot cadence; recorded times are k * snapshot_every_t.

    A given dt divides the snapshot interval (`SweepConfig` checks it), and
    `suggest_dt` divides it by construction.
    """
    dt = cfg.dt or suggest_dt(params, cfg.grid, cfg.snapshot_every_t, cfg.resolve)
    return dt, max(1, int(round(cfg.snapshot_every_t / dt)))


def _data_spec(cfg: SweepConfig) -> InitialDataSpec:
    """The spec of the sweep's data: an epsilon sweep cuts u0 at each point's own epsilon, so its data carry no cutoff."""
    if cfg.sweep_variable == "epsilon":
        return replace(cfg.initial_data, epsilon_cutoff=False)
    return cfg.initial_data


def _sweep_data(cfg: SweepConfig) -> tuple[SpectralField, SpectralField]:
    """The sweep's (u0, u1), built for its reference model from `_data_spec`."""
    return build_initial_data(_data_spec(cfg), cfg.grid, _model_for(cfg, None))


def _run_point(cfg: SweepConfig, data, ref_states, value: float, step: tuple[float, int]):
    """One point run with step = (dt, cadence), measured against the reference states."""
    params = _model_for(cfg, value)
    u0, u1 = data
    alpha = cfg.sweep_variable == "alpha"
    if not alpha:  # well-prepared data: u0 without the frequencies at or above 1/sqrt(eps)
        u0 = _epsilon_cutoff(u0, value)
    dt, cad = step
    snap_t = cad * dt
    crit = cfg.grid.dim / 2.0 - 1.0

    def at_ref(state):
        return ref_states[int(round(state.time / snap_t))]

    probes = {
        "div_sq": lambda st: sobolev_norm(divergence(st.u), 0.0) ** 2,
        "sobolev_diff_sq": lambda st: sobolev_norm(st.u - at_ref(st).u, crit) ** 2,
    }
    if alpha:
        probes["modulated_energy"] = lambda st: modulated_energy(st, at_ref(st), params).value
    scfg = StepperConfig(dt=dt, t_end=cfg.T_final, snapshot_every=cad)
    res = run_simulation(u0, u1, params, scfg, probes=probes)
    return SweepPoint(
        value=value,
        sup_modulated_energy=max(res.probes.get("modulated_energy", [math.nan])),
        div_l2t_l2=float(np.trapezoid(res.probes["div_sq"], res.times)),
        sup_sobolev_diff_sq=max(res.probes["sobolev_diff_sq"]),
        run_id=_point_run_id(cfg, value),
    )


# a pool worker's point runner, bound to the sweep's data and reference
# states by `_start_worker` when the worker starts
_worker_point = None


def _start_worker(cfg: SweepConfig, data, ref_states) -> None:
    global _worker_point
    _worker_point = partial(_run_point, cfg, data, ref_states)


def _pool_point(value: float, step: tuple[float, int]):
    """A pool task: one point run by the worker's point runner."""
    return _worker_point(value, step)


def _sweep(cfg: SweepConfig, variable: str, data) -> SweepResult:
    """One reference run with kept states, every point measured against it, then the rate fits.

    Alpha points step with the reference's dt.  Each epsilon point has its own
    dt, and the NS reference steps at half the finest of them (self-convergence
    of the reference is a test concern).  An alpha sweep fits the modulated
    energy, the divergence and the Sobolev difference, an epsilon sweep the
    Sobolev difference; a metric without three positive points has no fit.
    """
    if cfg.sweep_variable != variable:
        raise ValueError(f"config is not an {variable} sweep")
    if data is None:
        data = _sweep_data(cfg)
    ref_params = _model_for(cfg, None)
    if variable == "alpha":
        steps = [_aligned_dt(cfg, ref_params)] * len(cfg.values)
        dt_ref, cad_ref = steps[0]
    else:
        steps = [_aligned_dt(cfg, _model_for(cfg, v)) for v in cfg.values]
        cad_ref = math.ceil(cfg.snapshot_every_t / (min(dt for dt, _ in steps) / 2.0))
        dt_ref = cfg.snapshot_every_t / cad_ref
    ref_cfg = StepperConfig(dt=dt_ref, t_end=cfg.T_final, snapshot_every=cad_ref)
    ref = run_simulation(*data, ref_params, ref_cfg, keep_states=True)

    if cfg.workers > 1:
        shared = (cfg, data, ref.states)
        with ProcessPoolExecutor(cfg.workers, initializer=_start_worker, initargs=shared) as pool:
            points = list(pool.map(_pool_point, cfg.values, steps))
    else:
        points = list(map(partial(_run_point, cfg, data, ref.states), cfg.values, steps))
    fits = {}
    for name in _FITTED if variable == "alpha" else ["sobolev_diff_sq"]:
        try:
            fits[name] = fit_rate([(p.value, getattr(p, _FITTED[name])) for p in points])
        except ValueError:
            pass
    return SweepResult(cfg, points, fits)


def sweep_alpha(cfg: SweepConfig, data=None) -> SweepResult:
    """Penalized runs against the shared eps-only reference, and the slopes of their metrics.

    All runs share the same data, dt, and snapshot times, so pointwise
    differences are meaningful and the sweep is deterministic down to bytes.
    `data` is the sweep's (u0, u1) if already built; None builds it.
    """
    return _sweep(cfg, "alpha", data)


def sweep_epsilon(cfg: SweepConfig, data=None) -> SweepResult:
    """Damped-wave runs against the NS reference from the same smooth field.

    Per-point data is the well-prepared choice: u0 is v0 with frequencies at or
    above 1/sqrt(eps) removed, u1 = 0.  `data` is the sweep's (v0, 0) if
    already built; None builds it.
    """
    return _sweep(cfg, "epsilon", data)


# ---------------------------------------------------------------------------
# finite propagation speed
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BumpSpec:
    """Localized wave data: gradient bumps are Q-pure, solenoidal P-pure."""

    kind: str = "gradient"  # gradient | solenoidal | mixed
    sigma: float | None = None  # default L/40
    amplitude: float = 1.0
    center: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("gradient", "solenoidal", "mixed"):
            raise ValueError(f"unknown bump kind {self.kind!r}")


@dataclass
class FrontReport:
    times: list[float]
    support_radius: list[float]
    c1: float
    slope_bound_satisfied: bool
    bound_radius: list[float] = field(default_factory=list)
    initial_radius: float = 0.0
    measured_speed: float = float("nan")
    threshold: float = 0.0

    def to_csv(self) -> str:
        lines = ["time,support_radius,bound_radius"]
        for t, r, b in zip(self.times, self.support_radius, self.bound_radius):
            lines.append(f"{t:.17g},{r:.17g},{b:.17g}")
        return "\n".join(lines) + "\n"


def support_radius(f: PhysicalField, center: tuple[float, ...], threshold: float) -> float:
    """Farthest torus distance from center where the field exceeds threshold."""
    dist = np.sqrt(_torus_distance_sq(f.grid, center))
    return _radius(np.sqrt(np.sum(f.values**2, axis=0)), dist, threshold)


def _radius(mag: np.ndarray, dist: np.ndarray, threshold: float) -> float:
    """Largest dist where mag exceeds threshold, 0 if it exceeds it nowhere."""
    return float(np.max(dist, where=mag > threshold, initial=0.0))


def _magnitude(samples: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Pointwise magnitude of samples (ncomp, n, ...) into out; samples are squared in place."""
    np.sum(np.square(samples, out=samples), axis=0, out=out)
    return np.sqrt(out, out=out)


@dataclass
class _Front:
    """A front experiment before its samples: the scaled bump's Helmholtz parts and what they define."""

    parts: np.ndarray  # (P, Q) parts of the bump's dealias box, (2, dim, *grid.box_shape)
    dist: np.ndarray  # torus distance from the bump's center at every grid point
    threshold: float
    initial_radius: float
    times: np.ndarray


def _front_setup(
    params: ModelParams,
    grid: GridSpec,
    spec: BumpSpec,
    t_end: float | None,
    n_samples: int,
) -> _Front:
    """The bump of spec on the dealias box, scaled to peak magnitude spec.amplitude, and its window.

    The Gaussian takes one pruned forward transform, its gradient (or the
    rotated gradient) is formed on the box, and one inverse gives the peak,
    the threshold (1e-8 of the peak magnitude) and the initial radius.  The
    scaled box is split into its Helmholtz parts once.  One torus distance
    table serves the bump and every radius.
    """
    if params.model is not Model.HNS_EPS_ALPHA:
        raise ValueError("the front experiment runs the penalized model")
    if n_samples < 2:
        raise ValueError(f"the front speed fit needs n_samples >= 2, got {n_samples}")
    if t_end is not None and not 0 < t_end < math.inf:  # NaN fails every comparison
        raise ValueError(f"the window's t_end must be finite and positive, got {t_end!r}")
    center = spec.center or (grid.domain_length / 2.0,) * grid.dim
    sigma = spec.sigma if spec.sigma is not None else grid.domain_length / 40.0
    cut = grid.dealias_cut
    d2 = _torus_distance_sq(grid, center)
    phi = _rfft(np.exp(-d2 / (2.0 * sigma * sigma))[np.newaxis], cut)[0]
    box = np.stack([phi * ik for ik in _derivatives(grid, cut)])
    if spec.kind != "gradient":
        gx, gy = box[0], box[1]
        sol = np.stack([-gy, gx] if grid.dim == 2 else [gy, -gx, np.zeros_like(gx)])
        box = sol if spec.kind == "solenoidal" else box + sol
    samples = _irfft(box, grid.n_per_axis)
    mag = np.empty(grid.shape)
    peak = float(np.max(_magnitude(samples.copy(), mag)))  # a copy: the samples are scaled below
    if peak != 0:
        scale = spec.amplitude / peak
        box *= scale
        samples *= scale
    _magnitude(samples, mag)
    theta = 1e-8 * float(np.max(mag))
    dist = np.sqrt(d2, out=d2)
    R0 = _radius(mag, dist, theta)
    if t_end is None:
        head = grid.domain_length / 2.0 - R0 - 4.0 * grid.spacing
        if head <= 0:
            raise InvalidWindowError("bump support already reaches the antipode")
        t_end = 0.8 * head / (params.c2 if spec.kind == "solenoidal" else params.c1)
    return _Front(_helmholtz_parts(box, grid), dist, theta, R0, np.linspace(0.0, t_end, n_samples + 1))


def _sample_front(params: ModelParams, grid: GridSpec, front: _Front, damping: bool) -> FrontReport:
    """The support radius of the set-up bump's exact linear flow at each sample time.

    Each sample evaluates the branch tables on the dealias box and makes one
    pruned inverse transform into buffers shared by every sample.
    """
    n, cut, h = grid.n_per_axis, grid.dealias_cut, grid.spacing
    samples = np.empty((grid.dim, *grid.shape))
    work = _pass_buffers(grid.dim, grid.dim, n, cut, True, None)
    mag = np.empty(grid.shape)
    antipode_shell = front.dist >= grid.domain_length / 2.0 - 2.0 * h
    theta, R0, c1 = front.threshold, front.initial_radius, params.c1
    radii: list[float] = []
    bounds: list[float] = []
    for t in front.times:
        u, _ = _linear_flow(params, grid, float(t), damping, front.parts, None, rate=False, cut=cut)  # u1 = 0
        _magnitude(_irfft(u, n, out=samples, work=work), mag)
        if np.any(mag[antipode_shell] > theta):
            raise InvalidWindowError(f"wrap-around detected at t = {t:.6g}")
        radii.append(_radius(mag, front.dist, theta))
        bounds.append(R0 + c1 * float(t) + 2.0 * h)

    # front speed from the latter half of samples (skips the threshold transient)
    late = len(front.times) // 2
    speed = float(np.polyfit(front.times[late:], radii[late:], 1)[0]) if radii[-1] > 0 else float("nan")
    return FrontReport(
        times=[float(t) for t in front.times],
        support_radius=radii,
        c1=c1,
        slope_bound_satisfied=all(r <= b for r, b in zip(radii, bounds)),
        bound_radius=bounds,
        initial_radius=R0,
        measured_speed=speed,
        threshold=theta,
    )


def finite_speed_experiment(
    params: ModelParams,
    grid: GridSpec,
    bump_spec: BumpSpec,
    damping: bool = True,
    t_end: float | None = None,
    n_samples: int = 12,
) -> FrontReport:
    """Track the thresholded support radius of a localized linear wave.

    The data of the requested bump kind is built on the dealias box, evolved
    exactly (nonlinearity off), split into its Helmholtz parts once and
    propagated on that box, and sampled n_samples >= 2 times up to t_end,
    which defaults to 80% of the wrap-around time (L/2 - R)/c for the bump's
    branch speed.  The cone bound uses the fastest speed c1.  A window that
    already reaches the antipode, or field amplitude at the antipodal shell
    above the threshold before t_end, raises InvalidWindowError.
    """
    front = _front_setup(params, grid, bump_spec, t_end, n_samples)
    return _sample_front(params, grid, front, damping)
