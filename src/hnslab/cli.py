"""Command-line entry point: simulate / sweep / lp-check / speed-test / gates.

Configuration is a flat key=value file with dotted namespaces, overridable by
key=value tokens on the command line.  Every run writes a manifest and its
CSV outputs under <out>/<run_id>/, where run_id is a content hash of the
resolved configuration and the package version, so identical configs land in
identical directories and re-running is refused without --force.

Each command first validates its configuration and builds its inputs, and
only then creates the run directory, so a user mistake exits 2 and leaves no
directory behind.

Exit codes: 0 ok, 2 validation error, 3 blow-up, 4 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .energies import energy, smallness_gates
from .experiments import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_EPSILON_GRID,
    BumpSpec,
    InitialDataSpec,
    SweepConfig,
    build_initial_data,
    finite_speed_experiment,
    suggest_dt,
    sweep_alpha,
    sweep_epsilon,
)
from .littlewood_paley import INEQUALITY_NAMES, estimate_constants, verify_inequality
from .solvers import (
    BlowUpError,
    Model,
    ModelParams,
    Scheme,
    StepperConfig,
    run_simulation,
)
from .spectral import GridSpec, InvalidFieldError, divergence, sobolev_norm, write_snapshot

__all__ = ["main", "RunManifest", "ConfigError"]

SUBCOMMANDS = ("simulate", "sweep", "lp-check", "speed-test", "gates", "version")


class ConfigError(ValueError):
    pass


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
    "step.scheme": (str, "exp_linear_rk2"),
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

_REQUIRED = {
    "simulate": ("seed",),
    "sweep": ("seed",),
    "lp-check": ("seed",),
    "speed-test": ("seed",),
    "gates": ("seed",),
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


def load_config(path: str | None, overrides: list[str]) -> dict:
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
    cfg = {k: default for k, (_, default) in _KEY_TABLE.items()}
    for k, v in raw.items():
        cfg[k] = _parse_value(k, v)
    return cfg


def _require(cfg: dict, subcommand: str):
    missing = [k for k in _REQUIRED.get(subcommand, ()) if cfg.get(k) is None]
    if missing:
        raise ConfigError(f"missing required keys for {subcommand}: {', '.join(missing)}")


def _canonical_config_text(cfg: dict, subcommand: str) -> str:
    lines = [f"subcommand={subcommand}", f"version={__version__}"]
    for k in sorted(cfg):
        v = cfg[k]
        if v is None or k == "workers":  # changes how a run executes, not its outputs
            continue
        if isinstance(v, float):
            lines.append(f"{k}={v:.17g}")
        else:
            lines.append(f"{k}={v}")
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
    peak_rss_mb: float | None = None
    minor_page_faults: int | None = None

    def finish(self, status: str, started: float, path: str):
        """Stamp the status, end time and the process's resource use, then write to path.

        peak_rss_mb and minor_page_faults come from getrusage(RUSAGE_SELF) at
        the end of the run; like the timings they stay out of every CSV.
        """
        import resource  # imported at the end of a run, so `import hnslab` costs nothing more

        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.status = status
        self.finished = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        self.runtime_seconds = round(time.time() - started, 3)
        self.peak_rss_mb = round(usage.ru_maxrss / 1024.0, 1)  # Linux reports KiB
        self.minor_page_faults = usage.ru_minflt
        with open(path, "w") as fh:
            json.dump(self.__dict__, fh, indent=2, sort_keys=True)
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
    kind = _from_config(Model, cfg["model.kind"])
    eps = cfg["model.epsilon"]
    alpha = cfg["model.alpha"]
    s, delta = cfg["model.s"], cfg["model.delta"]
    if kind is Model.NS:
        return _from_config(ModelParams, kind, s=s, delta=delta)
    if kind is Model.HNS_EPS:
        return _from_config(ModelParams, kind, epsilon=eps, s=s, delta=delta)
    return _from_config(ModelParams, kind, epsilon=eps, alpha=alpha, s=s, delta=delta)


def _init_spec_from(cfg: dict) -> InitialDataSpec:
    return _from_config(
        InitialDataSpec,
        kind=cfg["init.kind"],
        seed=cfg["seed"],
        amplitude=cfg["init.amplitude"],
        kmin=cfg["init.kmin"],
        kmax=cfg["init.kmax"] or None,
        decay=cfg["init.decay"],
        epsilon_cutoff=bool(cfg["init.epsilon_cutoff"]),
        path=cfg["init.path"] or None,
    )


def _initial_data(cfg: dict, grid: GridSpec, params: ModelParams):
    """(u0, u1) from the init.* keys; an unreadable or mismatched init file is a config error."""
    spec = _init_spec_from(cfg)
    if spec.epsilon_cutoff and params.epsilon is None:
        raise ConfigError("init.epsilon_cutoff needs a hyperbolic model")
    try:
        return build_initial_data(spec, grid, params)
    except (InvalidFieldError, OSError) as exc:
        raise ConfigError(f"init.path: {type(exc).__name__}: {exc}") from exc


def _write_text(path: str, text: str, manifest: RunManifest):
    with open(path, "w") as fh:
        fh.write(text)
    manifest.outputs.append(os.path.basename(path))


def _write_probes(outdir: str, result, manifest: RunManifest):
    lines = ["time,probe_name,value"]
    for name in sorted(result.probes):
        for t, v in zip(result.times, result.probes[name]):
            lines.append(f"{t:.17g},{name},{v:.17g}")
    _write_text(os.path.join(outdir, "probes.csv"), "\n".join(lines) + "\n", manifest)


def _cmd_simulate(cfg: dict):
    grid = _grid_from(cfg)
    params = _params_from(cfg)
    u0, u1 = _initial_data(cfg, grid, params)
    if cfg["init.u1_scale"] and params.is_hyperbolic:
        rng = np.random.default_rng(cfg["seed"] + 1)
        from .spectral import dealias, random_band_limited

        u1 = dealias(
            random_band_limited(grid, rng, ncomp=grid.dim, amplitude=cfg["init.u1_scale"])
        )
    dt = cfg["step.dt"]
    if dt is None:
        dt = suggest_dt(params, grid, max(cfg["step.t_end"], 1e-9) / 40.0)
    if cfg["step.t_end"] > 0:
        n_steps = max(1, round(cfg["step.t_end"] / dt))
        dt = cfg["step.t_end"] / n_steps
    scfg = _from_config(
        StepperConfig,
        dt=dt,
        t_end=cfg["step.t_end"],
        scheme=_from_config(Scheme, cfg["step.scheme"]),
        snapshot_every=cfg["step.snapshot_every"],
    )
    _from_config(scfg.check_stability, params, grid)

    probes = {
        "l2_norm": lambda st: sobolev_norm(st.u, 0.0),
        "h1_norm": lambda st: sobolev_norm(st.u, 1.0),
        "div_l2": lambda st: sobolev_norm(divergence(st.u), 0.0),
    }
    if params.is_hyperbolic:
        last = {"state": None, "report": None}  # one energy report per recorded state

        def report(st):
            if last["state"] is not st:
                last.update(state=st, report=energy(st, params))
            return last["report"]

        probes["E_base"] = lambda st: report(st).base
        probes["E_high"] = lambda st: report(st).high

    def run(outdir: str, manifest: RunManifest) -> int:
        try:
            result = run_simulation(
                u0, u1, params, scfg, probes=probes, nonlinearity=bool(cfg["step.nonlinearity"])
            )
        except BlowUpError as exc:
            _write_probes(outdir, exc.partial, manifest)  # the series up to the blow-up
            raise
        _write_probes(outdir, result, manifest)
        if cfg["snapshots.save"]:
            snap = os.path.join(outdir, "final.hnsf")
            write_snapshot(snap, result.final.u, result.final.time)
            manifest.outputs.append("final.hnsf")
        return 0

    return run


def _cmd_sweep(cfg: dict):
    grid = _grid_from(cfg)
    var = cfg["sweep.variable"]
    if var not in ("alpha", "epsilon"):
        raise ConfigError(f"sweep.variable must be alpha or epsilon, got {var!r}")
    if cfg["sweep.values"]:
        values = _from_config(lambda: tuple(float(t) for t in cfg["sweep.values"].split(",") if t))
    else:
        values = DEFAULT_ALPHA_GRID if var == "alpha" else DEFAULT_EPSILON_GRID
    if var == "alpha":
        eps = cfg["model.epsilon"]
        if eps is None:
            raise ConfigError("alpha sweep requires model.epsilon")
        fixed = _from_config(
            ModelParams,
            Model.HNS_EPS_ALPHA,
            epsilon=eps,
            alpha=values[0],
            s=cfg["model.s"],
            delta=cfg["model.delta"],
        )
    else:
        fixed = _from_config(
            ModelParams,
            Model.HNS_EPS,
            epsilon=values[0],
            s=cfg["model.s"],
            delta=cfg["model.delta"],
        )
    try:
        sweep_cfg = SweepConfig(
            sweep_variable=var,
            values=values,
            fixed=fixed,
            initial_data=_init_spec_from(cfg),
            T_final=cfg["sweep.T_final"],
            grid=grid,
            seed=cfg["seed"],
            snapshot_every_t=cfg["sweep.snapshot_every_t"],
            dt=cfg["step.dt"],
            workers=cfg["workers"] or _default_workers(),
            resolve=cfg["sweep.resolve"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the sweep builds its own data when it runs; build it once here so that a
    # bad init file is rejected before the run directory exists
    _initial_data(cfg, grid, fixed)

    def run(outdir: str, manifest: RunManifest) -> int:
        result = sweep_alpha(sweep_cfg) if var == "alpha" else sweep_epsilon(sweep_cfg)
        _write_text(os.path.join(outdir, "sweep.csv"), result.to_csv(), manifest)
        fit_lines = ["metric,slope,intercept,r_squared"]
        for name, fit in sorted(result.fits.items()):
            fit_lines.append(fit.csv_row(name))
        _write_text(os.path.join(outdir, "rates.csv"), "\n".join(fit_lines) + "\n", manifest)
        for name, fit in sorted(result.fits.items()):
            pts = "\n".join(f"{x:.17g} {y:.17g}" for x, y in fit.points)
            _write_text(os.path.join(outdir, f"plot_{name}.dat"), pts + "\n", manifest)
            _write_text(
                os.path.join(outdir, f"plot_{name}.caption"),
                f"log-log {name} vs {var}; slope {fit.slope:.4f}, r^2 {fit.r_squared:.4f}\n",
                manifest,
            )
        return 0

    return run


def _cmd_lp_check(cfg: dict):
    grid = _grid_from(cfg)
    names = [n.strip() for n in cfg["lp.names"].split(",") if n.strip()]
    bad = sorted(set(names) - set(INEQUALITY_NAMES))
    if bad:
        raise ConfigError(f"unknown inequality names: {', '.join(bad)}")
    from .littlewood_paley import InequalityReport

    def run(outdir: str, manifest: RunManifest) -> int:
        lines = [InequalityReport.csv_header()]
        for name in names:
            g = grid
            if name == "l3_embedding" and grid.dim != 3:
                g = GridSpec(3, 32, grid.domain_length)
            if name == "ladyzhenskaya" and grid.dim != 2:
                g = GridSpec(2, 64, grid.domain_length)
            rep = verify_inequality(
                name, cfg["lp.trials"], cfg["seed"], g, {"delta": cfg["model.delta"]}
            )
            lines.append(rep.csv_row(g))
        _write_text(os.path.join(outdir, "inequalities.csv"), "\n".join(lines) + "\n", manifest)
        return 0

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

    def run(outdir: str, manifest: RunManifest) -> int:
        report = finite_speed_experiment(
            params,
            grid,
            spec,
            damping=bool(cfg["speed.damping"]),
            t_end=cfg["speed.t_end"] or None,
            n_samples=cfg["speed.samples"],
        )
        _write_text(os.path.join(outdir, "front.csv"), report.to_csv(), manifest)
        summary = (
            f"c1={report.c1:.17g}\nmeasured_speed={report.measured_speed:.17g}\n"
            f"initial_radius={report.initial_radius:.17g}\n"
            f"bound_satisfied={int(report.slope_bound_satisfied)}\n"
        )
        _write_text(os.path.join(outdir, "front_summary.txt"), summary, manifest)
        return 0

    return run


def _cmd_gates(cfg: dict):
    grid = _grid_from(cfg)
    params = _params_from(cfg)
    u0, u1 = _initial_data(cfg, grid, params)

    def run(outdir: str, manifest: RunManifest) -> int:
        constants = estimate_constants(cfg["seed"], cfg["gates.constants_trials"])
        report = smallness_gates(u0, u1, params, constants)
        _write_text(os.path.join(outdir, "gates.txt"), report.to_table() + "\n", manifest)
        csv = [report.csv_header()] + report.to_csv_rows()
        _write_text(os.path.join(outdir, "gates.csv"), "\n".join(csv) + "\n", manifest)
        const_lines = ["name,value"] + [f"{k},{v:.17g}" for k, v in sorted(constants.items())]
        _write_text(os.path.join(outdir, "constants.csv"), "\n".join(const_lines) + "\n", manifest)
        print(report.to_table())
        return 0

    return run


# subcommand -> command: cfg -> run(outdir, manifest) -> exit code.  Calling the
# command validates cfg and builds the inputs; run does the work and writes.
_DISPATCH = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "lp-check": _cmd_lp_check,
    "speed-test": _cmd_speed_test,
    "gates": _cmd_gates,
}


def _default_workers() -> int:
    try:
        import psutil

        n = psutil.cpu_count(logical=False)
        if n:
            return n
    except ImportError:
        pass
    return os.cpu_count() or 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hnslab", description=__doc__)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
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
    try:
        cfg = load_config(args.config, args.overrides)
        if args.workers is not None:
            cfg["workers"] = args.workers
        _require(cfg, args.subcommand)

        out_root = args.out or os.environ.get("HNS_OUT_DIR") or "runs"
        canon = _canonical_config_text(cfg, args.subcommand)
        run_id = hashlib.sha256(canon.encode()).hexdigest()[:16]
        outdir = os.path.join(out_root, run_id)
        if os.path.exists(outdir) and not args.force:
            raise ConfigError(
                f"run directory exists: {outdir} (identical config); use --force to overwrite"
            )
        run = _DISPATCH[args.subcommand](cfg)
        if os.path.exists(outdir):
            shutil.rmtree(outdir)
        os.makedirs(outdir)

        config_path = os.path.join(outdir, "config.resolved")
        with open(config_path, "w") as fh:
            fh.write(canon)
        manifest = RunManifest(
            run_id=run_id,
            config_path=config_path,
            started=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(started)),
        )
        code = run(outdir, manifest)
        manifest.finish("ok", started, os.path.join(outdir, "manifest.json"))
        print(f"run {run_id} ok -> {outdir}")
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        try:
            manifest.blowup_time = exc.time
            manifest.finish("blowup", started, os.path.join(outdir, "manifest.json"))
        except Exception:
            pass
        return 3
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
