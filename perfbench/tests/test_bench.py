"""The benchmark's own tests: metric names and units, the gate's teeth, and
the refusal to run without the package.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import workloads  # noqa: E402
from gate import Gate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_declared_metrics(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        gap = values["trace.wall_s"] - values["trace.self_sum_s"]
        assert 0.0 <= gap <= abs(values["trace.overhead_s"])
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_injected_verify_fault_fails_operations():
    work_dir = run.OUT_DIR / "tmp"
    work_dir.mkdir(parents=True, exist_ok=True)
    cycle = [
        workloads.verify_op("decomposition-sign") if op.kind == "verify" else op
        for op in workloads.build("oracle-sweep", 5, work_dir)
    ]
    gate = Gate()
    timed, _ = run.timed_pass(cycle, gate, 0.0)
    assert timed.failed == 2 and len(timed.ops) == 6
    assert all("decomposition-sign" in failure for failure in gate.failures)


def test_exits_without_result_when_package_is_missing():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(bare, "mc-scan", 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
