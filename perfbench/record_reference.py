"""Record reference.json: the checked outputs of every workload for every seed variant.

Run on the commit whose outputs define "correct" (the parent of any change
being measured), from the repository root:

    python3 perfbench/record_reference.py [--workload NAME ...]

Each entry is one fresh worker run with seed == variant.  A variant whose
outputs miss the paper's thresholds is not recorded and the script fails.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

import numpy

from run import HERE, OUT, load_reference, run_child
from checks import VARIANTS, WORKLOADS, physics_errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="*", default=list(WORKLOADS), choices=WORKLOADS)
    args = ap.parse_args()
    path = HERE / "reference.json"
    reference = load_reference() if path.exists() else {"workloads": {}}
    reference["variants"] = VARIANTS
    reference["recorded_with"] = {"python": platform.python_version(), "numpy": numpy.__version__}
    bad = 0
    for workload in args.workload:
        table = {}
        for variant in range(VARIANTS):
            work = OUT / "record"
            result, error = run_child(workload, variant, 0, work / "work", work / "run.json", False, 600.0)
            errors = [error] if result is None else physics_errors(workload, result["summary"]["facts"])
            if errors:
                bad += 1
                print(f"{workload} variant {variant}: {'; '.join(errors)}", file=sys.stderr)
                continue
            table[str(variant)] = result["summary"]["values"]
            print(f"{workload} variant {variant}: wall {result['wall_s']:.2f} s", flush=True)
        reference["workloads"][workload] = table
    if bad:
        return 1
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
