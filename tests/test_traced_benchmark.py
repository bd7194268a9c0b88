"""A traced benchmark run completes and reports every per-layer metric.

``perfbench/tracing.py`` reaches into the package by name (the public
functions of each layer and the arithmetic operators of ``Polynomial``),
so a deletion in the package can break traced runs alone.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_run_reports_every_per_layer_metric():
    argv = [
        sys.executable, "perfbench/run.py",
        "--workload", "unlink-quadratic", "--seed", "1", "--seconds", "0", "--trace", "1",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert '"correct": true' in done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert declared
    assert [m["name"] for m in declared if m["name"] not in result["metrics"]] == []
