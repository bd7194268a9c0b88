"""Regenerate the reference figures quoted in perfbench/README.md.

    python3 perfbench/reference.py --seeds 1-10

Runs ``run.py`` on every workload of ``BENCHMARK.json`` for its
``run_seconds``, once per seed untraced and once traced (for the first
two seeds), one run at a time, and prints per
metric the median and the quartile spread over the untraced runs, the
traced per-layer medians and the tracing overhead (traced minus untraced
``corpus_s`` on the same seeds).  The raw results go to
``perfbench/out/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TRACED_RUNS = 2


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["corpus_s_run"] = float(re.search(r"corpus_s=([0-9.]+)", lines[-2]).group(1))
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="range such as 1-10")
    args = parser.parse_args()

    raw = {}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        plain = [run(workload, s, 0) for s in seeds(args.seeds)]
        traced = [run(workload, s, 1) for s in seeds(args.seeds)[:TRACED_RUNS]]
        raw[workload] = {"untraced": plain, "traced": traced}
        print(f"## {workload}: {len(plain)} untraced runs, failed/attempted "
              + ", ".join(f"{r['failed']}/{r['attempted']}" for r in plain)
              + f", all correct: {all(r['correct'] for r in plain + traced)}")
        for name in plain[0]["metrics"]:
            median, share = spread([r["metrics"][name]["value"] for r in plain])
            print(f"  {name:<14} median {median:.6g} {plain[0]['metrics'][name]['unit']:<4} IQR/median {share:.3f}")
        if traced:
            overhead = [t["corpus_s_run"] - p["corpus_s_run"] for t, p in zip(traced, plain)]
            print(f"  tracing overhead (traced - untraced corpus_s): "
                  + ", ".join(f"{x:+.3f} s" for x in overhead))
            for name in traced[0]["metrics"]:
                values = [t["metrics"][name]["value"] for t in traced]
                print(f"  {name:<40} {statistics.median(values):.6g} {traced[0]['metrics'][name]['unit']}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "reference.json").write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
