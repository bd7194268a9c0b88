"""Benchmark of the unlink decision on three seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload unlink-quartic --seed 1 --seconds 35 --trace 0

One process, one compute thread.  The program is imported from ``src/``
of the checkout and driven in-process: through ``qcunlink.cli.main``
with ``--out`` reports, and through library functions the command line
does not expose.  Set-up imports the package, then three times builds
the corpus from ``--seed`` and runs a warm-up pass; then whole passes
over the corpus repeat until ``--seconds`` have elapsed, with the host
probe of ``hoststate.py`` timed between cases.  Every output is checked
against oracles computed apart from the program (see ``workloads.py``)
and must be byte-identical in every pass.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracing.py`` with ``--trace 1``.
"""

from __future__ import annotations

import os

# at most one compute thread, fixed before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3

# nothing the harness imports loads numpy, so its import falls inside setup_s
sys.path.insert(0, str(HERE))
import hoststate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, OracleError  # noqa: E402


def import_program():
    """Import ``qcunlink`` from this checkout's ``src/``; returns (package, seconds)."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import qcunlink
        import qcunlink.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import qcunlink from {SRC}: {exc}") from None
    elapsed = time.perf_counter() - start
    if Path(qcunlink.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: qcunlink was imported from {qcunlink.__file__}, not from {SRC}")
    return qcunlink, elapsed


# an oracle disagreed, or the output lacks what the oracles read
MALFORMED = (OracleError, KeyError, IndexError, TypeError, ValueError)


def run_case(case):
    """One operation: (result or the exception it raised, seconds, output bytes)."""
    if case.out and os.path.exists(case.out):
        os.remove(case.out)
    with contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            result = case.run()
        except Exception as exc:  # counted as a failed operation
            result = exc
        elapsed = time.perf_counter() - start
    data = b"" if isinstance(result, Exception) else case.observe(result)
    return result, elapsed, data


def judge(case, result, data) -> tuple[bool, list[str]]:
    """(failed, oracle errors) for one output."""
    if isinstance(result, Exception):
        return True, []
    try:
        wrong = case.check(result, data)
    except MALFORMED as exc:
        return False, [f"{case.name}: {exc!r}"]
    return wrong is not None, []


def self_check(case, result, data) -> list[str]:
    """Every corruption of a good output must be rejected by the case's oracles."""
    errors = []
    for corrupt in case.corruptions:
        bad_result, bad_data = corrupt(result, data)
        try:
            accepted = case.check(bad_result, bad_data) is None
        except MALFORMED:
            accepted = False
        if accepted:
            errors.append(f"{case.name}: an oracle accepted a corrupted output")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qcunlink, import_s = import_program()
    (HERE / "out").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=HERE / "out")
    try:
        return measure(args, qcunlink, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def fingerprint(result, data):
    """What every pass must reproduce: the kind of result, an exit code, the output bytes."""
    return type(result).__name__, result if isinstance(result, int) else None, data


def measure(args, qcunlink, import_s, workdir) -> int:
    # set-up: build the corpus and run the warm-up pass, several times
    build = WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cases = build(qcunlink.cli, qcunlink, workdir, random.Random(args.seed))
        warm = [run_case(case) for case in cases]
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    # the last warm-up outputs are checked and must be reproduced by every pass
    errors: list[str] = []
    reference = []
    for case, (result, _, data) in zip(cases, warm):
        failed, oracle_errors = judge(case, result, data)
        errors += oracle_errors
        if not failed and not oracle_errors:
            errors += self_check(case, result, data)
        reference.append((failed, fingerprint(result, data)))

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install(qcunlink)
    times = [[] for _ in cases]
    probes = []
    layers = []
    attempted = failed = passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < args.seconds:
        gc.collect()
        if tracer:
            tracer.reset()
        report_bytes = 0
        row = []
        for index, case in enumerate(cases):
            row.append(hoststate.probe())
            result, elapsed, data = run_case(case)
            times[index].append(elapsed)
            was_failed, expected = reference[index]
            attempted += 1
            failed += was_failed
            if fingerprint(result, data) != expected:
                errors.append(f"{case.name}: output differs from the warm-up pass")
            if case.out:
                report_bytes += len(data)
        row.append(hoststate.probe())
        probes.append(row)
        if tracer:
            layers.append(tracer.snapshot(report_bytes))
        passes += 1
    if tracer:
        tracer.uninstall()

    # the host switches between two speeds; time each case in the slower one
    per_case, slow_share, fallbacks = hoststate.slow_state_times(times, probes)
    corpus_s = sum(per_case)
    if tracer:
        metrics = {
            name: {"value": statistics.median_low(p[name] for p in layers), "unit": tracing.unit(name)}
            for name in tracing.METRICS
        }
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "corpus_s": {"value": corpus_s, "unit": "s"},
            "case_p50_s": {"value": statistics.median(per_case), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        }
    for case, t, kept, (was_failed, _) in zip(cases, times, per_case, reference):
        status = f" FAILED ({case.fault or 'not a known fault'})" if was_failed else ""
        print(
            f"# case {case.name} [{case.klass}] slow_state_s={kept:.6f} median_s={statistics.median(t):.6f}{status}",
            file=sys.stderr,
        )
    print(f"# slow-state executions kept: {slow_share:.3f}; cases that fell back to all passes: {fallbacks}",
          file=sys.stderr)
    for message in dict.fromkeys(errors):
        print(f"# oracle: {message}", file=sys.stderr)
    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} cases={len(cases)} "
        f"passes={passes} corpus_s={corpus_s:.6f} setup_s={setup_s:.6f}"
    )
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
