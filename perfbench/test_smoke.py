"""Smoke test of the benchmark itself; not part of the package's test suite.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once at minimum length (one second, which still means
three passes) and checks that the result line names exactly the metrics, with the
units, that BENCHMARK.json declares.
"""

import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(metrics) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_match_spec(workload):
    result = run(workload, trace=0)
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_per_layer_metrics_match_spec():
    result = run("sweep-3d-export", trace=1)
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
