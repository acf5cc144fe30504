"""Checks of the benchmark itself: work counts repeat and the contract holds.

    python3 -m pytest bench/test_bench.py

Each traced run takes 20 to 90 seconds, most of it in the tracemalloc round;
the whole file takes about five minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "count-computed")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "bench/run.py", "--workload", workload]
    command += ["--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def traced_metrics(workload: str) -> dict:
    proc = run_bench(ROOT, workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    *_, details, result = proc.stdout.strip().splitlines()
    result = json.loads(result)
    assert result["correct"] and result["failed"] == 0
    # A function that a refactor removed is reported absent, not as a metric.
    assert set(result["metrics"]) | set(json.loads(details)["absent"]) == {
        m["name"] for m in SPEC["per_layer"]
    }
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = traced_metrics(workload), traced_metrics(workload)
    counts = {name: m["value"] for name, m in first.items() if m["unit"] in COUNT_UNITS}
    assert counts and counts == {name: second[name]["value"] for name in counts}
    if workload != "verify-suite":
        assert first.get("adiabatic.adiabatic_distance.calls", {"value": 0})["value"] == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], trace=0)
    assert proc.returncode != 0
    assert proc.stdout == ""
