"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import WORKLOADS, compare  # noqa: E402
from run import END_TO_END, OUT, load_reference  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *BENCHMARK["command"][1:], *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def test_benchmark_json_names_what_the_code_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run_prints_every_metric(workload, trace):
    proc = _run(HERE.parent, "--workload", workload, "--seed", "5", "--seconds", "0.1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} = {metric['value']} {metric['unit']}")


def _scaled(x, factor):
    if isinstance(x, dict):
        return {k: _scaled(v, factor) for k, v in x.items()}
    if isinstance(x, list):
        return [_scaled(v, factor) for v in x]
    if isinstance(x, float):
        return x * factor
    return x


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_accepts_itself_and_rejects_a_perturbed_output(workload):
    table = load_reference()["workloads"][workload]
    assert sorted(map(int, table)) == list(range(load_reference()["variants"]))
    for values in table.values():
        assert compare(values, json.loads(json.dumps(values))) == []
        assert compare(values, _scaled(values, 1.0 + 1e-6)) != []


def test_exits_nonzero_without_program_sources():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    try:
        proc = _run(bare, "--workload", "analysis", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
