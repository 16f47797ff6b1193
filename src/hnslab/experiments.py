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

Sweep points run sequentially or in a process pool; results merge by sweep
index so output is independent of completion order, and all CSV text is
formatted deterministically.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .energies import modulated_energy
from .solvers import (
    Model,
    ModelParams,
    StepperConfig,
    _linear_flow,
    _split,
    run_simulation,
)
from .spectral import (
    GridSpec,
    InvalidFieldError,
    PhysicalField,
    SpectralField,
    _irfft,
    _torus_distance_sq,
    dealias,
    divergence,
    gaussian_bump,
    gradient,
    helmholtz_project,
    k_abs,
    linf_norm,
    random_band_limited,
    read_snapshot,
    sobolev_norm,
    to_physical,
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
    keep = np.sqrt(epsilon) * k_abs(F.grid) < 1.0
    return SpectralField(F.grid, F.coeffs * keep, is_mean_zero=True)


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
        loaded = SpectralField(grid, loaded.coeffs)
        u0 = helmholtz_project(loaded.remove_mean(), "P")
    u0 = dealias(u0)
    if spec.epsilon_cutoff:
        if params.epsilon is None:
            raise ValueError("epsilon_cutoff needs a hyperbolic model")
        u0 = _epsilon_cutoff(u0, params.epsilon)
    return u0, SpectralField.zeros(grid, grid.dim)


def suggest_dt(
    params: ModelParams, grid: GridSpec, t_snap: float, resolve: float = 0.5, u_scale: float = 1.0
) -> float:
    """Snapshot-aligned dt resolving the divergence-free branch oscillations.

    The exponential stepper integrates the linear part exactly, so only the
    frequencies carrying observable amplitude need resolving: the P-branch
    rate c2 * k for hyperbolic models, the advective rate for NS.  The fast
    penalized branch is quasistatic under the exact source kernels and does
    not constrain dt.
    """
    kmax = grid.k_max_dealiased
    if params.is_hyperbolic:
        rate = params.c2 * kmax
    else:
        rate = max(u_scale, 1e-6) * kmax
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
        fit_mod = self.fits.get("modulated_energy")
        fit_div = self.fits.get("div_l2t_l2")
        fit_diff = self.fits.get("sobolev_diff_sq")
        lines.append(
            "rate_fit,nan,{:.17g},{},{},{},slopes".format(
                self.config.T_final,
                f"{fit_mod.slope:.17g}" if fit_mod else "nan",
                f"{fit_div.slope:.17g}" if fit_div else "nan",
                f"{fit_diff.slope:.17g}" if fit_diff else "nan",
            )
        )
        return "\n".join(lines) + "\n"


def _point_run_id(cfg: SweepConfig, value: float) -> str:
    payload = (
        f"{cfg.sweep_variable}={value:.17g};seed={cfg.seed};grid={cfg.grid};"
        f"fixed={cfg.fixed};data={cfg.initial_data};T={cfg.T_final:.17g}"
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _model_for(cfg: SweepConfig, value: float) -> ModelParams:
    base = cfg.fixed
    if cfg.sweep_variable == "alpha":
        return ModelParams(
            Model.HNS_EPS_ALPHA,
            epsilon=base.epsilon,
            alpha=value,
            s=base.s,
            delta=base.delta,
        )
    return ModelParams(Model.HNS_EPS, epsilon=value, s=base.s, delta=base.delta)


def _aligned_dt(cfg: SweepConfig, params: ModelParams) -> tuple[float, int]:
    """dt and snapshot cadence; recorded times must be k * snapshot_every_t.

    Reference and sweep trajectories are paired slot-by-slot, so a dt that
    does not divide the snapshot interval would silently compare misaligned
    states; reject it instead.
    """
    dt = cfg.dt or suggest_dt(params, cfg.grid, cfg.snapshot_every_t, cfg.resolve)
    cad = max(1, int(round(cfg.snapshot_every_t / dt)))
    if abs(cad * dt - cfg.snapshot_every_t) > 1e-9 * cfg.snapshot_every_t:
        raise ValueError(
            f"dt = {dt:.6g} does not divide snapshot_every_t = {cfg.snapshot_every_t:.6g}"
        )
    return dt, cad


def _run_alpha_point(cfg: SweepConfig, value: float, data, ref_states, dt: float, cad: int):
    u0, u1 = data
    params = _model_for(cfg, value)
    scfg = StepperConfig(dt=dt, t_end=cfg.T_final, snapshot_every=cad)
    snap_t = cad * dt

    def at_ref(state):
        return ref_states[int(round(state.time / snap_t))]

    crit = cfg.grid.dim / 2.0 - 1.0
    probes = {
        "modulated_energy": lambda st: modulated_energy(st, at_ref(st), params).value,
        "div_sq": lambda st: sobolev_norm(divergence(st.u), 0.0) ** 2,
        "sobolev_diff_sq": lambda st: sobolev_norm(st.u - at_ref(st).u, crit) ** 2,
    }
    res = run_simulation(u0, u1, params, scfg, probes=probes)
    div_int = float(np.trapezoid(res.probes["div_sq"], res.times))
    return SweepPoint(
        value=value,
        sup_modulated_energy=max(res.probes["modulated_energy"]),
        div_l2t_l2=div_int,
        sup_sobolev_diff_sq=max(res.probes["sobolev_diff_sq"]),
        run_id=_point_run_id(cfg, value),
    )


def sweep_alpha(cfg: SweepConfig) -> SweepResult:
    """Penalized runs against the shared eps-reference; slopes of both metrics.

    All runs share the same data, dt, and snapshot times, so pointwise
    differences are meaningful and the sweep is deterministic down to bytes.
    """
    if cfg.sweep_variable != "alpha":
        raise ValueError("config is not an alpha sweep")
    ref_params = ModelParams(
        Model.HNS_EPS, epsilon=cfg.fixed.epsilon, s=cfg.fixed.s, delta=cfg.fixed.delta
    )
    data = build_initial_data(cfg.initial_data, cfg.grid, ref_params)
    dt, cad = _aligned_dt(cfg, ref_params)
    scfg = StepperConfig(dt=dt, t_end=cfg.T_final, snapshot_every=cad)
    ref = run_simulation(data[0], data[1], ref_params, scfg, keep_states=True)

    args = [(cfg, v, data, ref.states, dt, cad) for v in cfg.values]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            points = list(pool.map(_alpha_point_star, args))
    else:
        points = [_run_alpha_point(*a) for a in args]

    fits = {
        "modulated_energy": _safe_fit([(p.value, p.sup_modulated_energy) for p in points]),
        "div_l2t_l2": _safe_fit([(p.value, p.div_l2t_l2) for p in points]),
        "sobolev_diff_sq": _safe_fit([(p.value, p.sup_sobolev_diff_sq) for p in points]),
    }
    return SweepResult(cfg, points, {k: v for k, v in fits.items() if v is not None})


def _alpha_point_star(args):
    return _run_alpha_point(*args)


def _safe_fit(pts):
    try:
        return fit_rate(pts)
    except ValueError:
        return None


def _run_epsilon_point(cfg: SweepConfig, value: float, v0: SpectralField, ref_states):
    params = _model_for(cfg, value)
    u0 = _epsilon_cutoff(v0, value)
    u1 = SpectralField.zeros(cfg.grid, cfg.grid.dim)
    dt, cad = _aligned_dt(cfg, params)
    scfg = StepperConfig(dt=dt, t_end=cfg.T_final, snapshot_every=cad)
    snap_t = cad * dt
    crit = cfg.grid.dim / 2.0 - 1.0

    def at_ref(state):
        return ref_states[int(round(state.time / snap_t))]

    probes = {
        "sobolev_diff_sq": lambda st: sobolev_norm(st.u - at_ref(st).u, crit) ** 2,
        "div_sq": lambda st: sobolev_norm(divergence(st.u), 0.0) ** 2,
    }
    res = run_simulation(u0, u1, params, scfg, probes=probes)
    return SweepPoint(
        value=value,
        sup_modulated_energy=float("nan"),
        div_l2t_l2=float(np.trapezoid(res.probes["div_sq"], res.times)),
        sup_sobolev_diff_sq=max(res.probes["sobolev_diff_sq"]),
        run_id=_point_run_id(cfg, value),
    )


def sweep_epsilon(cfg: SweepConfig) -> SweepResult:
    """Damped-wave runs against the NS reference from the same smooth field.

    Per-point data is the well-prepared choice: u0 is v0 with frequencies at or
    above 1/sqrt(eps) removed, u1 = 0.  The NS reference runs once at half the
    finest sweep dt (self-convergence of the reference is a test concern).
    """
    if cfg.sweep_variable != "epsilon":
        raise ValueError("config is not an epsilon sweep")
    ns = ModelParams(Model.NS, s=cfg.fixed.s, delta=cfg.fixed.delta)
    spec = replace(cfg.initial_data, epsilon_cutoff=False)
    v0, _ = build_initial_data(spec, cfg.grid, ns)

    finest = min(_aligned_dt(cfg, _model_for(cfg, v))[0] for v in cfg.values)
    cad_ref = math.ceil(cfg.snapshot_every_t / (finest / 2.0))
    dt_ref = cfg.snapshot_every_t / cad_ref
    ref_cfg = StepperConfig(dt=dt_ref, t_end=cfg.T_final, snapshot_every=cad_ref)
    ref = run_simulation(v0, None, ns, ref_cfg, keep_states=True)

    args = [(cfg, v, v0, ref.states) for v in cfg.values]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            points = list(pool.map(_epsilon_point_star, args))
    else:
        points = [_run_epsilon_point(*a) for a in args]
    fits = {"sobolev_diff_sq": _safe_fit([(p.value, p.sup_sobolev_diff_sq) for p in points])}
    return SweepResult(cfg, points, {k: v for k, v in fits.items() if v is not None})


def _epsilon_point_star(args):
    return _run_epsilon_point(*args)


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
    mag = np.sqrt(np.sum(f.values**2, axis=0))
    above = mag > threshold
    if not np.any(above):
        return 0.0
    return float(np.max(dist[above]))


def _bump_data(spec: BumpSpec, grid: GridSpec) -> tuple[SpectralField, PhysicalField]:
    """The bump's coefficients and samples, scaled to peak magnitude spec.amplitude."""
    sigma = spec.sigma if spec.sigma is not None else grid.domain_length / 40.0
    center = spec.center or (grid.domain_length / 2.0,) * grid.dim
    phi = to_spectral(gaussian_bump(grid, sigma, center)).remove_mean()
    grad_phi = gradient(phi)
    if grid.dim == 2:
        gx, gy = grad_phi.coeffs
        sol = SpectralField(grid, np.stack([-gy, gx]), is_mean_zero=True)
    else:
        gx, gy, _ = grad_phi.coeffs
        zeros = np.zeros_like(gx)
        sol = SpectralField(grid, np.stack([gy, -gx, zeros]), is_mean_zero=True)
    if spec.kind == "gradient":
        u0 = grad_phi
    elif spec.kind == "solenoidal":
        u0 = sol
    else:  # mixed
        u0 = grad_phi + sol
    u0 = dealias(u0)
    phys = to_physical(u0)
    peak = linf_norm(phys)
    if peak == 0:
        return u0, phys
    scale = spec.amplitude / peak
    return u0 * scale, PhysicalField(grid, phys.values * scale)


def finite_speed_experiment(
    params: ModelParams,
    grid: GridSpec,
    bump_spec: BumpSpec,
    damping: bool = True,
    t_end: float | None = None,
    n_samples: int = 12,
    threshold_factor: float = 1e-8,
) -> FrontReport:
    """Track the thresholded support radius of a localized linear wave.

    The data of the requested bump kind is evolved exactly (nonlinearity off),
    split into its Helmholtz parts once and propagated on the half spectrum,
    and sampled n_samples times up to t_end, which defaults to 80% of the
    wrap-around time (L/2 - R)/c for the bump's branch speed.  The cone bound
    uses the fastest speed c1.  Field amplitude at the antipodal shell above
    the threshold before t_end raises InvalidWindowError.
    """
    if params.model is not Model.HNS_EPS_ALPHA:
        raise ValueError("the front experiment runs the penalized model")
    center = bump_spec.center or (grid.domain_length / 2.0,) * grid.dim
    u0, phys0 = _bump_data(bump_spec, grid)
    c1 = params.c1
    branch_speed = c1 if bump_spec.kind == "gradient" else params.c2
    if bump_spec.kind == "mixed":
        branch_speed = c1

    theta = threshold_factor * float(np.max(np.sqrt(np.sum(phys0.values**2, axis=0))))
    R0 = support_radius(phys0, center, theta)
    L = grid.domain_length
    h = grid.spacing
    if t_end is None:
        head = L / 2.0 - R0 - 4.0 * h
        if head <= 0:
            raise InvalidWindowError("bump support already reaches the antipode")
        t_end = 0.8 * head / branch_speed

    dist = np.sqrt(_torus_distance_sq(grid, center))
    antipode_shell = dist >= L / 2.0 - 2.0 * h

    times = np.linspace(0.0, t_end, n_samples + 1)
    radii: list[float] = []
    bounds: list[float] = []
    parts = _split(u0)  # u1 = 0: no split, no multiply
    for t in times:
        u, _ = _linear_flow(params, grid, float(t), damping, parts, None, rate=False)
        mag = np.sqrt(np.sum(_irfft(u) ** 2, axis=0))
        if np.any(mag[antipode_shell] > theta):
            raise InvalidWindowError(f"wrap-around detected at t = {t:.6g}")
        above = mag > theta
        radii.append(float(np.max(dist[above])) if np.any(above) else 0.0)
        bounds.append(R0 + c1 * float(t) + 2.0 * h)

    ok = all(r <= b for r, b in zip(radii, bounds))
    # front speed from the latter half of samples (skips the threshold transient)
    half = len(times) // 2
    if len(times) - half >= 2 and radii[-1] > 0:
        speed = float(np.polyfit(times[half:], radii[half:], 1)[0])
    else:
        speed = float("nan")
    return FrontReport(
        times=[float(t) for t in times],
        support_radius=radii,
        c1=c1,
        slope_bound_satisfied=ok,
        bound_radius=bounds,
        initial_radius=R0,
        measured_speed=speed,
        threshold=theta,
    )
