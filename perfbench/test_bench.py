"""Self-test of the benchmark: ``python3 -m pytest perfbench`` from the root.

Runs every workload at tiny input sizes, traced and untraced, and checks that
each run passes its output checks and emits exactly the metrics BENCHMARK.json
names, with their units.  Takes about 15 s.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_emits_every_metric(workload: str, trace: str) -> None:
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert not list(ROOT.glob(".perfbench-*")), "scratch directory left behind"


def test_fails_without_program_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "mc-low", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_children() -> None:
    spans = [["cli.main", 0.0, 10.0, -1], ["a.f", 1.0, 4.0, 0], ["b.g", 2.0, 3.0, 1],
             ["a.f", 5.0, 6.0, 0]]
    totals = tracer.span_totals(spans)
    assert totals["cli.main"] == {"s": 10.0, "calls": 1, "self_s": 6.0}
    assert totals["a.f"] == {"s": 4.0, "calls": 2, "self_s": 3.0}
    assert totals["b.g"]["self_s"] == 1.0
