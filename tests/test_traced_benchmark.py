"""Benchmark smoke runs: every workload passes, and a traced run reports every metric.

``perfbench/tracing.py`` reaches into the package by name (the public
functions of each layer and the arithmetic operators of ``Polynomial``),
so a deletion in the package can break traced runs alone.  An untraced
single pass of each workload checks that the corpus still gets its
expected answers, so a change that breaks the benchmark fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*argv):
    """The JSON result line of one ``perfbench/run.py`` process at seed 1."""
    argv = [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "0", *argv]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_untraced_run_is_correct(workload):
    result = run_benchmark("--workload", workload)
    assert result["correct"] is True and result["failed"] == 0


def test_traced_run_reports_every_per_layer_metric():
    result = run_benchmark("--workload", "unlink-quadratic", "--trace", "1")
    assert result["correct"] is True and result["failed"] == 0
    declared = BENCHMARK["per_layer"]
    assert declared
    assert [m["name"] for m in declared if m["name"] not in result["metrics"]] == []
