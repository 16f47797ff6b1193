"""Command-line entry point: simulate / sweep / lp-check / speed-test / gates.

Configuration is a flat key=value file with dotted namespaces, overridable by
key=value tokens on the command line.  Every run writes a manifest and its
CSV outputs under <out>/<run_id>/.  The run_id hashes the subcommand, the
package version and the keys the command read (workers aside), which
config.resolved lists, so identical configs land in identical
directories, a key the command does not read leaves its run_id alone, and
re-running is refused without --force.

Each command first validates its configuration, reads every key it uses and
builds its inputs, and only then is the run directory created, so a user
mistake exits 2 and leaves no directory behind.  Every outcome after that
leaves manifest.json with status ok, blowup, error or interrupted.

Exit codes: 0 ok, 2 validation error, 3 blow-up, 4 internal error,
130 interrupted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .energies import energy, smallness_gates
from .experiments import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_EPSILON_GRID,
    BumpSpec,
    InitialDataSpec,
    InvalidWindowError,
    SweepConfig,
    _front_setup,
    _sample_front,
    _sweep_data,
    build_initial_data,
    suggest_dt,
    sweep_alpha,
    sweep_epsilon,
)
from .littlewood_paley import INEQUALITY_NAMES, InequalityReport, _check_inequality, _check_trials
from .littlewood_paley import estimate_constants, verify_inequality
from .solvers import BlowUpError, Model, ModelParams, StepperConfig, run_simulation
from .spectral import GridSpec, InvalidFieldError, divergence, random_band_limited, sobolev_norm
from .spectral import write_snapshot

__all__ = ["main", "RunManifest", "ConfigError"]


class ConfigError(ValueError):
    pass


class _Config(dict):
    """The key table of one run.  It records every key read through [], and
    once frozen, after the run_id is hashed, it refuses a key not yet read."""

    def __init__(self, table: dict):
        super().__init__(table)
        self.read: set[str] = set()
        self.frozen = False

    def __getitem__(self, key: str):
        if key not in self.read:
            if self.frozen:
                raise RuntimeError(f"config key {key} read after the run_id was hashed")
            self.read.add(key)
        return super().__getitem__(key)


# key -> (type, default, help); None default means required when used
_KEY_TABLE: dict[str, tuple] = {
    "seed": (int, None),
    "workers": (int, None),
    "grid.dim": (int, 2),
    "grid.n": (int, 64),
    "grid.length": (float, 2.0 * np.pi),
    "grid.dealias": (float, 2.0 / 3.0),
    "model.kind": (str, "hns_eps_alpha"),
    "model.epsilon": (float, None),
    "model.alpha": (float, None),
    "model.s": (float, 0.5),
    "model.delta": (float, 0.5),
    "step.dt": (float, None),
    "step.t_end": (float, 1.0),
    "step.snapshot_every": (int, 1),
    "step.nonlinearity": (int, 1),
    "init.kind": (str, "taylor_green"),
    "init.amplitude": (float, 1.0),
    "init.kmin": (int, 1),
    "init.kmax": (int, 0),  # 0: dealias edge
    "init.decay": (float, 2.0),
    "init.epsilon_cutoff": (int, 0),
    "init.path": (str, ""),
    "init.u1_scale": (float, 0.0),
    "sweep.variable": (str, "alpha"),
    "sweep.values": (str, ""),
    "sweep.T_final": (float, 1.0),
    "sweep.snapshot_every_t": (float, 0.025),
    "sweep.resolve": (float, 0.5),
    "lp.names": (str, ",".join(INEQUALITY_NAMES)),
    "lp.trials": (int, 500),
    "speed.bump": (str, "mixed"),
    "speed.sigma": (float, 0.0),  # 0: L/40
    "speed.amplitude": (float, 1.0),
    "speed.damping": (int, 1),
    "speed.samples": (int, 12),
    "speed.t_end": (float, 0.0),  # 0: auto window
    "gates.constants_trials": (int, 200),
    "snapshots.save": (int, 0),
}


def _parse_value(key: str, raw: str):
    typ = _KEY_TABLE[key][0]
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def load_config(path: str | None, overrides: list[str]) -> _Config:
    """Flat key=value config plus overrides; unknown keys are an error."""
    raw: dict[str, str] = {}
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                k, v = line.split("=", 1)
                raw[k.strip()] = v.strip()
    for tok in overrides:
        if "=" not in tok:
            raise ConfigError(f"override must be key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        raw[k.strip()] = v.strip()
    unknown = sorted(set(raw) - set(_KEY_TABLE))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    cfg = _Config({k: default for k, (_, default) in _KEY_TABLE.items()})
    for k, v in raw.items():
        cfg[k] = _parse_value(k, v)
    return cfg


def _canonical_config_text(cfg: _Config, subcommand: str) -> str:
    """config.resolved and the run_id's input: the keys the command read, None for one left unset."""
    lines = [f"subcommand={subcommand}", f"version={__version__}"]
    for k in sorted(cfg.read - {"workers"}):  # workers changes how a run executes, not its outputs
        v = cfg[k]
        lines.append(f"{k}={v:.17g}" if isinstance(v, float) else f"{k}={v}")
    return "\n".join(lines) + "\n"


@dataclass
class RunManifest:
    run_id: str
    config_path: str
    outputs: list[str] = field(default_factory=list)
    started: str = ""
    finished: str = ""
    status: str = "ok"
    runtime_seconds: float = 0.0
    blowup_time: float | None = None
    error: str | None = None  # "Type: message" of the exception that failed the run
    steps: int | None = None  # time steps taken by `simulate`, the one that blew up included
    peak_rss_mb: float | None = None
    minor_page_faults: int | None = None


class _Run:
    """One run directory, from its creation to its manifest.

    Made after validation: it refuses an existing directory unless force,
    which removes it, then writes config.resolved.
    """

    def __init__(self, root: str, canon: str, force: bool, started: float):
        run_id = hashlib.sha256(canon.encode()).hexdigest()[:16]
        self.dir, self.started = os.path.join(root, run_id), started
        if os.path.exists(self.dir):
            if not force:
                raise ConfigError(
                    f"run directory exists: {self.dir} (identical config); use --force to overwrite"
                )
            shutil.rmtree(self.dir)
        os.makedirs(self.dir)
        config_path = os.path.join(self.dir, "config.resolved")
        with open(config_path, "w") as fh:
            fh.write(canon)
        started_at = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(started))
        self.manifest = RunManifest(run_id=run_id, config_path=config_path, started=started_at)

    def write(self, name: str, text: str):
        with open(os.path.join(self.dir, name), "w") as fh:
            fh.write(text)
        self.manifest.outputs.append(name)

    def finish(self, status: str):
        """Stamp the status, end time and the process's resource use, then write manifest.json.

        peak_rss_mb and minor_page_faults come from getrusage(RUSAGE_SELF) at
        the end of the run; like the timings they stay out of every CSV.
        """
        import resource  # imported at the end of a run, so `import hnslab` costs nothing more

        usage = resource.getrusage(resource.RUSAGE_SELF)
        m = self.manifest
        m.status = status
        m.finished = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        m.runtime_seconds = round(time.time() - self.started, 3)
        m.peak_rss_mb = round(usage.ru_maxrss / 1024.0, 1)  # Linux reports KiB
        m.minor_page_faults = usage.ru_minflt
        with open(os.path.join(self.dir, "manifest.json"), "w") as fh:
            json.dump(m.__dict__, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _from_config(make, *args, **kwargs):
    """make(*args, **kwargs), a ValueError from its validation reported as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{type(exc).__name__}: {exc}") from exc


def _grid_from(cfg: dict) -> GridSpec:
    return _from_config(
        GridSpec,
        dim=cfg["grid.dim"],
        n_per_axis=cfg["grid.n"],
        domain_length=cfg["grid.length"],
        dealias_fraction=cfg["grid.dealias"],
    )


def _params_from(cfg: dict) -> ModelParams:
    """The model.* keys; model.epsilon and model.alpha are ignored by a model without them."""
    kind = _from_config(Model, cfg["model.kind"])
    eps = None if kind is Model.NS else cfg["model.epsilon"]
    alpha = cfg["model.alpha"] if kind is Model.HNS_EPS_ALPHA else None
    s, delta = cfg["model.s"], cfg["model.delta"]
    return _from_config(ModelParams, kind, epsilon=eps, alpha=alpha, s=s, delta=delta)


def _init_spec_from(cfg: dict, grid: GridSpec) -> InitialDataSpec:
    """The init.* keys but init.epsilon_cutoff, which an epsilon sweep does not read.

    A random band must start inside the dealias box, where the data live.
    """
    spec = _from_config(
        InitialDataSpec,
        kind=cfg["init.kind"],
        seed=cfg["seed"],
        amplitude=cfg["init.amplitude"],
        kmin=cfg["init.kmin"],
        kmax=cfg["init.kmax"] or None,
        decay=cfg["init.decay"],
        path=cfg["init.path"] or None,
    )
    if spec.kind == "random" and spec.kmin > grid.dealias_cut:
        raise ConfigError(f"init.kmin = {spec.kmin} exceeds grid.dealias_cut = {grid.dealias_cut}")
    return spec


def _initial_data(cfg: dict, grid: GridSpec, params: ModelParams):
    """(u0, u1) from the init.* keys."""
    spec = replace(_init_spec_from(cfg, grid), epsilon_cutoff=bool(cfg["init.epsilon_cutoff"]))
    if spec.epsilon_cutoff and params.epsilon is None:
        raise ConfigError("init.epsilon_cutoff needs a hyperbolic model")
    return build_initial_data(spec, grid, params)


def _probes_csv(result) -> str:
    lines = ["time,probe_name,value"]
    for name in sorted(result.probes):
        for t, v in zip(result.times, result.probes[name]):
            lines.append(f"{t:.17g},{name},{v:.17g}")
    return "\n".join(lines) + "\n"


def _cmd_simulate(cfg: dict):
    grid = _grid_from(cfg)
    params = _params_from(cfg)
    u1_scale = cfg["init.u1_scale"]
    if not math.isfinite(u1_scale):
        raise ConfigError(f"init.u1_scale must be finite, got {u1_scale!r}")
    u0, u1 = _initial_data(cfg, grid, params)
    if u1_scale and params.is_hyperbolic:
        rng = np.random.default_rng(cfg["seed"] + 1)
        u1 = random_band_limited(grid, rng, ncomp=grid.dim, amplitude=u1_scale)
    dt, t_end = cfg["step.dt"], cfg["step.t_end"]
    if not 0 <= t_end < math.inf:  # NaN fails every comparison
        raise ConfigError(f"step.t_end must be finite and nonnegative, got {t_end!r}")
    if dt is None:
        dt = suggest_dt(params, grid, max(t_end, 1e-9) / 40.0)
    elif not 0 < dt < math.inf:
        raise ConfigError(f"step.dt must be finite and positive, got {dt!r}")
    if t_end > 0:
        n_steps = max(1, round(t_end / dt))
        dt = t_end / n_steps
    scfg = _from_config(
        StepperConfig, dt=dt, t_end=t_end, snapshot_every=cfg["step.snapshot_every"]
    )
    nonlinearity, save = bool(cfg["step.nonlinearity"]), cfg["snapshots.save"]

    probes = {
        "l2_norm": lambda st: sobolev_norm(st.u, 0.0),
        "h1_norm": lambda st: sobolev_norm(st.u, 1.0),
        "div_l2": lambda st: sobolev_norm(divergence(st.u), 0.0),
    }
    if params.is_hyperbolic:
        # one energy report per recorded state, which also gives its div_l2
        last = {"state": None, "report": None}

        def report(st):
            if last["state"] is not st:
                last.update(state=st, report=energy(st, params))
            return last["report"]

        probes["div_l2"] = lambda st: report(st).div_l2
        probes["E_base"] = lambda st: report(st).base
        probes["E_high"] = lambda st: report(st).high

    def run(out: _Run):
        try:
            result = run_simulation(u0, u1, params, scfg, probes=probes, nonlinearity=nonlinearity)
        except BlowUpError as exc:
            out.manifest.steps = exc.partial.steps
            out.write("probes.csv", _probes_csv(exc.partial))  # the series up to the blow-up
            raise
        out.manifest.steps = result.steps
        out.write("probes.csv", _probes_csv(result))
        if save:
            write_snapshot(os.path.join(out.dir, "final.hnsf"), result.final.u, result.final.time)
            out.manifest.outputs.append("final.hnsf")

    return run


def _cmd_sweep(cfg: dict):
    grid = _grid_from(cfg)
    var = cfg["sweep.variable"]
    if var not in ("alpha", "epsilon"):
        raise ConfigError(f"sweep.variable must be alpha or epsilon, got {var!r}")
    alpha = var == "alpha"
    if cfg["sweep.values"]:
        values = _from_config(lambda: tuple(float(t) for t in cfg["sweep.values"].split(",") if t))
        if not values:
            raise ConfigError(f"sweep.values names no value: {cfg['sweep.values']!r}")
    else:
        values = DEFAULT_ALPHA_GRID if alpha else DEFAULT_EPSILON_GRID
    if alpha and cfg["model.epsilon"] is None:
        raise ConfigError("alpha sweep requires model.epsilon")
    # the model of the first point; it is part of every point's run_id
    fixed = _from_config(
        ModelParams,
        Model.HNS_EPS_ALPHA if alpha else Model.HNS_EPS,
        epsilon=cfg["model.epsilon"] if alpha else values[0],
        alpha=values[0] if alpha else None,
        s=cfg["model.s"],
        delta=cfg["model.delta"],
    )
    spec = _init_spec_from(cfg, grid)
    if alpha:  # an epsilon sweep cuts u0 at each point's own eps
        spec = replace(spec, epsilon_cutoff=bool(cfg["init.epsilon_cutoff"]))
    sweep_cfg = _from_config(
        SweepConfig,
        sweep_variable=var,
        values=values,
        fixed=fixed,
        initial_data=spec,
        T_final=cfg["sweep.T_final"],
        grid=grid,
        seed=cfg["seed"],
        snapshot_every_t=cfg["sweep.snapshot_every_t"],
        dt=cfg["step.dt"],
        workers=cfg["workers"] or os.cpu_count() or 1,
        resolve=cfg["sweep.resolve"],
    )
    data = _sweep_data(sweep_cfg)

    def run(out: _Run):
        result = (sweep_alpha if alpha else sweep_epsilon)(sweep_cfg, data)
        out.write("sweep.csv", result.to_csv())
        fit_lines = ["metric,slope,intercept,r_squared"]
        for name, fit in sorted(result.fits.items()):
            fit_lines.append(fit.csv_row(name))
        out.write("rates.csv", "\n".join(fit_lines) + "\n")
        for name, fit in sorted(result.fits.items()):
            pts = "\n".join(f"{x:.17g} {y:.17g}" for x, y in fit.points)
            out.write(f"plot_{name}.dat", pts + "\n")
            out.write(
                f"plot_{name}.caption",
                f"log-log {name} vs {var}; slope {fit.slope:.4f}, r^2 {fit.r_squared:.4f}\n",
            )

    return run


def _cmd_lp_check(cfg: dict):
    dim, length = cfg["grid.dim"], cfg["grid.length"]
    if dim not in (2, 3):
        raise ConfigError(f"grid.dim must be 2 or 3, got {dim}")
    trials, seed, delta = cfg["lp.trials"], cfg["seed"], cfg["model.delta"]
    _from_config(_check_trials, trials)
    grid = None  # the configured grid, read only if some name samples on it
    checks = []  # (name, the grid it is sampled on)
    for name in filter(None, (n.strip() for n in cfg["lp.names"].split(","))):
        if name == "l3_embedding" and dim != 3:
            g = _from_config(GridSpec, 3, 32, length)
        elif name == "ladyzhenskaya" and dim != 2:
            g = _from_config(GridSpec, 2, 64, length)
        else:
            grid = grid or _grid_from(cfg)
            g = grid
        _from_config(_check_inequality, name, g)
        checks.append((name, g))
    if not checks:
        raise ConfigError(f"lp.names names no inequality: {cfg['lp.names']!r}")

    def run(out: _Run):
        lines = [InequalityReport.csv_header()]
        for name, g in checks:
            lines.append(verify_inequality(name, trials, seed, g, {"delta": delta}).csv_row(g))
        out.write("inequalities.csv", "\n".join(lines) + "\n")

    return run


def _cmd_speed_test(cfg: dict):
    grid = _grid_from(cfg)
    params = _params_from(cfg)
    if params.model is not Model.HNS_EPS_ALPHA:
        raise ConfigError("speed-test runs the penalized model, model.kind=hns_eps_alpha")
    spec = _from_config(
        BumpSpec,
        kind=cfg["speed.bump"],
        sigma=cfg["speed.sigma"] or None,
        amplitude=cfg["speed.amplitude"],
    )
    t_end = cfg["speed.t_end"] or None
    try:  # the bump and its window, built once: a bump too wide for the grid is a user mistake
        front = _from_config(_front_setup, params, grid, spec, t_end, cfg["speed.samples"])
    except InvalidWindowError as exc:
        raise ConfigError(f"{type(exc).__name__}: {exc}") from exc
    damping = bool(cfg["speed.damping"])

    def run(out: _Run):
        report = _sample_front(params, grid, front, damping=damping)
        out.write("front.csv", report.to_csv())
        summary = (
            f"c1={report.c1:.17g}\nmeasured_speed={report.measured_speed:.17g}\n"
            f"initial_radius={report.initial_radius:.17g}\n"
            f"bound_satisfied={int(report.slope_bound_satisfied)}\n"
        )
        out.write("front_summary.txt", summary)

    return run


def _cmd_gates(cfg: dict):
    grid = _grid_from(cfg)
    seed, trials = cfg["seed"], cfg["gates.constants_trials"]
    _from_config(_check_trials, trials, constants=True)
    params = _params_from(cfg)
    u0, u1 = _initial_data(cfg, grid, params)

    def run(out: _Run):
        constants = estimate_constants(seed, trials)
        report = smallness_gates(u0, u1, params, constants)
        out.write("gates.txt", report.to_table() + "\n")
        out.write("gates.csv", "\n".join([report.csv_header()] + report.to_csv_rows()) + "\n")
        const_lines = ["name,value"] + [f"{k},{v:.17g}" for k, v in sorted(constants.items())]
        out.write("constants.csv", "\n".join(const_lines) + "\n")
        print(report.to_table())

    return run


# subcommand -> command: cfg -> run(out).  Calling the command validates cfg,
# reads every key the run depends on and builds the inputs; run does the work
# and writes its outputs through the _Run, without reading cfg.
_DISPATCH = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "lp-check": _cmd_lp_check,
    "speed-test": _cmd_speed_test,
    "gates": _cmd_gates,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hnslab", description=__doc__)
    parser.add_argument("subcommand", choices=[*_DISPATCH, "version"])
    parser.add_argument("overrides", nargs="*", help="key=value config overrides")
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--out", default=None, help="output root (default $HNS_OUT_DIR or ./runs)")
    parser.add_argument("--force", action="store_true", help="allow overwriting an existing run dir")
    parser.add_argument("--workers", type=int, default=None, help="sweep worker processes")
    args = parser.parse_args(argv)

    if args.subcommand == "version":
        print(__version__)
        return 0

    started = time.time()
    out, status, code = None, "ok", 0  # out exists once the run directory does
    try:
        cfg = load_config(args.config, args.overrides)
        if args.workers is not None:
            cfg["workers"] = args.workers
        if cfg["seed"] is None:
            raise ConfigError(f"missing required key for {args.subcommand}: seed")
        try:
            run = _DISPATCH[args.subcommand](cfg)
        except (InvalidFieldError, OSError) as exc:  # an unreadable or mismatched init file
            if "init.kind" not in cfg.read or cfg["init.kind"] != "file":
                raise
            raise ConfigError(f"init.path: {type(exc).__name__}: {exc}") from exc
        canon = _canonical_config_text(cfg, args.subcommand)
        cfg.frozen = True
        root = args.out or os.environ.get("HNS_OUT_DIR") or "runs"
        out = _Run(root, canon, args.force, started)
        run(out)
        print(f"run {out.manifest.run_id} ok -> {out.dir}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        status, code = "error", 2
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        status, code = "blowup", 3
        if out is not None:
            out.manifest.blowup_time = exc.time
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        status, code = "interrupted", 130
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        print(f"error: {error}", file=sys.stderr)
        status, code = "error", 4
        if out is not None:
            out.manifest.error = error
    if out is not None:
        out.finish(status)
    return code


if __name__ == "__main__":
    sys.exit(main())
