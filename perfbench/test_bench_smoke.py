"""Smoke test of the benchmark: every workload at tiny size, untraced and traced."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload: str, trace: int) -> None:
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("error_rate 0 ratio") for line in lines)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.startswith(metric["name"] + " ") and line.endswith(" " + metric["unit"])
                   for line in lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_traced_counts_repeat_exactly() -> None:
    counts = []
    for _ in range(2):
        proc = _run(ROOT, "--workload", "large-n", "--seed", "3", "--seconds", "1",
                    "--trace", "1", "--size", "tiny")
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if k.endswith(".calls")})
        assert metrics["invariants.conductor.factor_calls_per_miss"]["value"] == 5
    assert counts[0] == counts[1]


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
