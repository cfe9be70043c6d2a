"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_and_checks_pass(workload, trace):
    lines, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.startswith(f"{metric['name']} = ") and "(samples " in line
                   for line in lines)
    if trace:
        layer_sum = sum(value["value"] for name, value in result["metrics"].items()
                        if name.endswith(".self_ms"))
        assert layer_sum == pytest.approx(result["metrics"]["trace.job_ms"]["value"])
    else:
        for metric in declared:
            assert result["metrics"][metric["name"]]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
