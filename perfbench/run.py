"""hnslab benchmark: run one workload for a fixed time and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload alpha-sweep --seed 1 --seconds 30 --trace 0

Each repetition runs the workload once in a fresh Python process
(``worker.py``), so every repetition pays interpreter start, ``import hnslab``
and cold per-process caches, as a CLI user does.  A new repetition starts
only if it should end within ``--seconds``, after a minimum of three untraced
(or one untraced and one traced).  Every repetition's outputs are checked
against the reference recorded from the parent code for the seed's input
variant, against the paper's thresholds, and against each other byte for
byte.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end medians over repetitions; with ``--trace 1`` repetitions alternate
untraced and traced, and the metrics are the per-layer medians of the traced
ones plus ``trace.overhead``.  The line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from checks import WORKLOADS, compare, physics_errors, variant_of
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# one run must end within 180 s; stop starting repetitions well before that
BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0


def environment(field_bytes: int | None) -> dict:
    import numpy

    try:
        import scipy.fft  # noqa: F401

        scipy_fft = True
    except ImportError:
        scipy_fft = False
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "working_set_bytes": field_bytes,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "scipy_fft_imports": scipy_fft,
        "thread_env": {
            k: os.environ[k]
            for k in sorted(os.environ)
            if "THREADS" in k or k.startswith("OMP_")
        },
    }


def _version(module: str) -> str | None:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _cache_bytes(level: int) -> int | None:
    """Size of one instance of the level-N data or unified cache of cpu0."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == str(level) and (
                index / "type"
            ).read_text().strip() in ("Data", "Unified"):
                text = (index / "size").read_text().strip()
                scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
                return int(text.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return None


def run_child(workload: str, seed: int, trace: int, workdir: Path, result: Path, tiny: bool, timeout: float):
    """Start one worker process; return (result dict or None, error text)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--result", str(result)]
    if tiny:
        cmd.append("--tiny")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        return None, f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    with open(result) as fh:
        return json.load(fh), ""


def check(workload: str, seed: int, summary: dict, reference: dict | None) -> list[str]:
    errors = physics_errors(workload, summary["facts"])
    if reference is not None:
        ref = reference["workloads"][workload][str(variant_of(seed))]
        errors += compare(ref, summary["values"])
    return errors


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke test on tiny grids, without the reference comparison")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hnslab" / "__init__.py").is_file():
        print(f"error: no hnslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = None if args.tiny else load_reference()

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    started = time.monotonic()
    min_runs = 2 if args.trace else 3
    runs = []  # (traced, result or None, errors)
    durations = []
    while True:
        k = len(runs)
        traced = bool(args.trace) and k % 2 == 1
        t0 = time.monotonic()
        result, error = run_child(args.workload, args.seed, int(traced), run_dir / f"work{k}",
                                  run_dir / f"run{k}.json", args.tiny, CHILD_TIMEOUT_S - (t0 - started))
        durations.append(time.monotonic() - t0)
        errors = [error] if result is None else check(args.workload, args.seed, result["summary"], reference)
        runs.append((traced, result, errors))
        for e in errors:
            print(f"run {k}: {e}", file=sys.stderr)
        # start another repetition only if it should end within the window
        elapsed = time.monotonic() - started
        finish = elapsed + statistics.median(durations)
        if result is None or finish > BUDGET_S or (len(runs) >= min_runs and finish > args.seconds):
            break

    # byte-identical outputs across repetitions, traced or not (criterion 11)
    hashes = Counter(r["sha256"] for _, r, e in runs if r is not None and not e)
    if len(hashes) > 1:
        common = hashes.most_common(1)[0][0]
        for _, r, errors in runs:
            if r is not None and r["sha256"] != common:
                errors.append("outputs differ from the other repetitions")
                print("outputs differ from the other repetitions", file=sys.stderr)

    good = [(traced, r) for traced, r, errors in runs if not errors]
    failed = len(runs) - len(good)
    field_bytes = good[0][1]["field_bytes"] if good else None
    metrics = {}
    plain = [r for traced, r in good if not traced]
    if args.trace:
        layered = [r["layers"] for traced, r in good if traced]
        if layered and plain:
            for name, unit in PER_LAYER.items():
                if name != "trace.overhead":
                    median = statistics.median_low if unit in ("count", "bytes") else statistics.median
                    metrics[name] = {"value": median(x[name] for x in layered), "unit": unit}
            overhead = statistics.median(r["wall_s"] for t, r in good if t) / statistics.median(
                r["wall_s"] for r in plain
            )
            metrics["trace.overhead"] = {"value": overhead, "unit": PER_LAYER["trace.overhead"]}
    elif plain:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(r[name] for r in plain), "unit": unit}

    correct = failed == 0 and bool(metrics)
    env = environment(field_bytes)
    record = {"workload": args.workload, "seed": args.seed, "variant": variant_of(args.seed),
              "environment": env, "runs": [r for _, r, _ in runs if r is not None]}
    for r in record["runs"]:
        r.pop("summary", None)
    with open(run_dir / "record.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
