"""Span tracer installed from outside the program, around calls into each hnslab module.

``Tracer.install(modules)`` wraps every public function of every hnslab
module, and rebinds the wrapper under every name that refers to the function
in any hnslab module namespace: ``from .spectral import helmholtz_project``
gives ``solvers`` its own binding, which a patch of ``spectral`` alone would
miss.  It also wraps the ``numpy.fft`` transforms (and ``scipy.fft``'s, when
the program has imported it) and counts ``SpectralField`` constructions.

Spans live in memory as ``[name, start, end, parent, info]`` and are written
out once, after the timed region.  A span's layer is the module that defines
the function; transform calls belong to ``spectral``.  Self time of a layer is
the duration of its spans minus the time covered by their direct children.

Importing this module does not import hnslab, so run.py can read the
metric table without the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import sys
import time
import types

_FFT_COMPLEX = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
_FFT_REAL = ("rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
_FFT_SPAN = "spectral.fft"

# name -> unit; every traced run reports each of these, 0 where the workload
# does not reach the layer
PER_LAYER = {
    "spectral.self_s": "s",
    "spectral.fft.calls": "count",
    "spectral.fft.s": "s",
    "spectral.fft.calls_per_step": "1/step",
    "spectral.fft.points": "count",
    "spectral.fft.gflop": "Gflop",
    "spectral.fft.bytes": "bytes",
    "spectral.to_physical.calls": "count",
    "spectral.to_physical.s": "s",
    "spectral.to_spectral.calls": "count",
    "spectral.to_spectral.s": "s",
    "spectral.spectral_product.calls": "count",
    "spectral.spectral_product.s": "s",
    "spectral.helmholtz_project.calls": "count",
    "spectral.helmholtz_project.s": "s",
    "spectral.padded_product.calls": "count",
    "spectral.padded_product.s": "s",
    "spectral.sobolev_norm.calls": "count",
    "spectral.sobolev_norm.s": "s",
    "spectral.fields": "count",
    "spectral.fields_per_step": "1/step",
    "spectral.snapshot.read_s": "s",
    "spectral.snapshot.write_s": "s",
    "spectral.snapshot.bytes": "bytes",
    "solvers.self_s": "s",
    "solvers.step.calls": "count",
    "solvers.step.ms.ns": "ms",
    "solvers.step.ms.hns_eps": "ms",
    "solvers.step.ms.hns_eps_alpha": "ms",
    "solvers.step.first_ms": "ms",
    "solvers.nonlinear_term.calls": "count",
    "solvers.nonlinear_term.s": "s",
    "solvers.run_simulation.kept_bytes": "bytes",
    "solvers.evolve_linear.calls": "count",
    "solvers.evolve_linear.s": "s",
    "solvers.picard_local_solve.s": "s",
    "solvers.picard.iterations": "count",
    "solvers.picard.s_per_iter": "s",
    "energies.self_s": "s",
    "energies.modulated_energy.calls": "count",
    "energies.modulated_energy.s": "s",
    "energies.energy.calls": "count",
    "energies.energy.s": "s",
    "energies.smallness_gates.s": "s",
    "littlewood_paley.self_s": "s",
    "littlewood_paley.verify_inequality.calls": "count",
    "littlewood_paley.verify_inequality.s": "s",
    "littlewood_paley.decompose.calls": "count",
    "littlewood_paley.decompose.s": "s",
    "experiments.self_s": "s",
    "experiments.reference.s": "s",
    "experiments.point.s": "s",
    "experiments.build_initial_data.s": "s",
    "experiments.finite_speed_experiment.s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead": "ratio",
}

# functions whose calls and inclusive seconds are reported as <name>.calls / <name>.s
_CALLS_AND_SECONDS = (
    "spectral.to_physical",
    "spectral.to_spectral",
    "spectral.spectral_product",
    "spectral.helmholtz_project",
    "spectral.padded_product",
    "spectral.sobolev_norm",
    "solvers.nonlinear_term",
    "solvers.evolve_linear",
    "energies.modulated_energy",
    "energies.energy",
    "littlewood_paley.verify_inequality",
    "littlewood_paley.decompose",
)
_SECONDS = (
    "solvers.picard_local_solve",
    "energies.smallness_gates",
    "experiments.build_initial_data",
    "experiments.finite_speed_experiment",
)


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


def _fft_info(name: str, args, kwargs, out) -> tuple[int, float, int]:
    """(points, flop, bytes) of one transform call, computed from array shapes.

    N is the length of the real-space transform; flop is 5 N log2 N per
    complex transform and 2.5 N log2 N per real one, times the batch count.
    """
    a = args[0] if args else kwargs["a"]
    real_side = out if name in ("irfft", "irfft2", "irfftn", "hfft") else a
    ndim = real_side.ndim
    if name.endswith("n"):
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        s = kwargs.get("s", args[1] if len(args) > 1 else None)
        if axes is None:
            axes = range(ndim) if s is None else range(ndim - len(s), ndim)
    elif name.endswith("2"):
        axes = kwargs.get("axes", args[2] if len(args) > 2 else (-2, -1))
    else:
        axes = (kwargs.get("axis", args[2] if len(args) > 2 else -1),)
    n = math.prod(real_side.shape[ax] for ax in axes)
    batch = real_side.size // n if n else 0
    per = 2.5 if name in _FFT_REAL else 5.0
    flop = per * n * math.log2(n) * batch if n > 1 else 0.0
    return n * batch, flop, a.nbytes + out.nbytes


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.fields = 0

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == _FFT_SPAN and stack and spans[stack[-1]][0] == _FFT_SPAN:
                return fn(*args, **kwargs)  # a transform built from another one
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                try:
                    rec[4] = hook(args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass  # the program's API moved: the derived metric reads 0
            return out

        return wrapper

    def install(self, modules) -> "Tracer":
        hooks = {
            "solvers.step": _step_hook,
            "solvers.run_simulation": _kept_bytes_hook,
            "solvers.picard_local_solve": lambda a, k, out: out.iterations,
            "spectral.read_snapshot": _path_size_hook,
            "spectral.write_snapshot": _path_size_hook,
        }
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if name.startswith("_") or not _is_function(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    span = f"{layer}.{name}"
                    wrappers[id(obj)] = self._wrap(span, obj, hooks.get(span))
        fft_modules = [importlib.import_module("numpy.fft")]
        if "scipy.fft" in sys.modules:
            fft_modules.append(sys.modules["scipy.fft"])
        for mod in fft_modules:
            for short in _FFT_COMPLEX + _FFT_REAL:
                obj = getattr(mod, short, None)
                if obj is not None:
                    wrappers[id(obj)] = self._wrap(_FFT_SPAN, obj, functools.partial(_fft_info, short))
        for mod in (*modules, *fft_modules):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
                    self._restore.append((mod, name, obj))

        field_cls = getattr(modules[0], "SpectralField", None)
        if field_cls is not None:
            original_init = field_cls.__init__

            def counting_init(obj, *args, **kwargs):
                self.fields += 1
                original_init(obj, *args, **kwargs)

            field_cls.__init__ = counting_init
            self._restore.append((field_cls, "__init__", original_init))
        return self

    def uninstall(self):
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"], "spans": self.spans}, fh)

    def metrics(self, output_bytes: int = 0) -> dict[str, float]:
        """Every per-layer metric except trace.overhead, which needs an untraced run."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: 0.0 for name in PER_LAYER if name != "trace.overhead"}
        calls: dict[str, int] = {}
        secs: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += dur - child[i]
            calls[name] = calls.get(name, 0) + 1
            secs[name] = secs.get(name, 0.0) + dur
        for name in _CALLS_AND_SECONDS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.s"] = secs.get(name, 0.0)
        for name in _SECONDS:
            out[f"{name}.s"] = secs.get(name, 0.0)

        ffts = [s[4] for s in spans if s[0] == _FFT_SPAN and s[4] is not None]
        steps = [s for s in spans if s[0] == "solvers.step"]
        out["spectral.fft.calls"] = calls.get(_FFT_SPAN, 0)
        out["spectral.fft.s"] = secs.get(_FFT_SPAN, 0.0)
        out["spectral.fft.points"] = sum(f[0] for f in ffts)
        out["spectral.fft.gflop"] = sum(f[1] for f in ffts) / 1e9
        out["spectral.fft.bytes"] = sum(f[2] for f in ffts)
        out["spectral.fields"] = self.fields
        if steps:
            out["spectral.fft.calls_per_step"] = out["spectral.fft.calls"] / len(steps)
            out["spectral.fields_per_step"] = self.fields / len(steps)
        out["spectral.snapshot.read_s"] = secs.get("spectral.read_snapshot", 0.0)
        out["spectral.snapshot.write_s"] = secs.get("spectral.write_snapshot", 0.0)
        out["spectral.snapshot.bytes"] = sum(
            s[4] or 0 for s in spans if s[0] in ("spectral.read_snapshot", "spectral.write_snapshot")
        )

        out["solvers.step.calls"] = len(steps)
        for model in ("ns", "hns_eps", "hns_eps_alpha"):
            ms = [1e3 * (s[2] - s[1]) for s in steps if s[4] == model]
            out[f"solvers.step.ms.{model}"] = statistics.median(ms) if ms else 0.0
        runs = {i for i, s in enumerate(spans) if s[0] == "solvers.run_simulation"}
        first: dict[int, float] = {}
        for s in steps:
            if s[3] in runs and s[3] not in first:
                first[s[3]] = 1e3 * (s[2] - s[1])
        out["solvers.step.first_ms"] = statistics.median(first.values()) if first else 0.0
        out["solvers.run_simulation.kept_bytes"] = sum(spans[i][4] or 0 for i in runs)
        iterations = sum(s[4] or 0 for s in spans if s[0] == "solvers.picard_local_solve")
        out["solvers.picard.iterations"] = iterations
        if iterations:
            out["solvers.picard.s_per_iter"] = secs["solvers.picard_local_solve"] / iterations

        # a sweep's first run_simulation is its reference run, the rest are its points
        sweep_names = ("experiments.sweep_alpha", "experiments.sweep_epsilon")
        sweeps = {i for i, s in enumerate(spans) if s[0] in sweep_names}
        under = [s for s in spans if s[0] == "solvers.run_simulation" and s[3] in sweeps]
        seen: set[int] = set()
        points = []
        for s in under:
            if s[3] in seen:
                points.append(s[2] - s[1])
            else:
                seen.add(s[3])
                out["experiments.reference.s"] += s[2] - s[1]
        out["experiments.point.s"] = statistics.median(points) if points else 0.0
        out["cli.output_bytes"] = output_bytes
        return out


def _step_hook(args, kwargs, out):
    params = args[1] if len(args) > 1 else kwargs["params"]
    return params.model.value


def _kept_bytes_hook(args, kwargs, result):
    total = 0
    for st in getattr(result, "states", None) or ():
        total += st.u.coeffs.nbytes + (st.u_t.coeffs.nbytes if st.u_t is not None else 0)
    return total


def _path_size_hook(args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)
