"""Smoke test of the benchmark: every workload, untraced and traced, at tiny sizes.

Run with ``python -m pytest perfbench/smoke.py``; the whole file
takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def traced_results():
    return {}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_and_passes_checks(workload, trace, traced_results):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        traced_results[workload] = result["metrics"]


def test_every_layer_metric_is_measured_by_some_workload(traced_results):
    if len(traced_results) != len(WORKLOADS):
        pytest.skip("needs the traced smoke runs of every workload")
    never = [m["name"] for m in SPEC["per_layer"]
             if all(r[m["name"]]["value"] == 0 for r in traced_results.values())]
    # values within 1e-13 of a cell boundary are rare, so this tally may read 0
    assert never in ([], ["fiber.build_fiber_measure.boundary_ambiguous"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
