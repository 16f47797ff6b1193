"""One workload run in a fresh process; started by run.py, one process per run.

Usage: worker.py --workload W --seed N --trace 0|1 --t0 T --result FILE [--tiny]

``--t0`` is the parent's CLOCK_MONOTONIC reading just before it started this
process, so ``setup_s`` covers interpreter start, ``import hnslab``, input
generation and the input snapshot write.  The timed region is the call into
the program; checks and summaries run after it, with the tracer removed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _tree_bytes(path: str) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    import hnslab

    if Path(hnslab.__file__).resolve().parent != ROOT / "src" / "hnslab":
        raise SystemExit(f"hnslab imported from {hnslab.__file__}, not from this checkout")
    from checks import variant_of
    from tracer import Tracer
    from workloads import MODULES, WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(variant_of(args.seed), args.tiny)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0

    tracer = Tracer().install(MODULES) if args.trace else None
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        outputs = workload.run(inputs)
    finally:
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu_seconds() - cpu0
        if tracer is not None:
            tracer.uninstall()

    summary, output_bytes = workload.summarize(inputs, outputs)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "summary": summary,
        "sha256": hashlib.sha256(output_bytes).hexdigest(),
        "field_bytes": inputs["field_bytes"],
    }
    if tracer is not None:
        written = _tree_bytes("out") if os.path.isdir("out") else 0
        result["layers"] = tracer.metrics(output_bytes=written)
        tracer.write(str(Path(args.result).with_suffix(".spans.json")))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
