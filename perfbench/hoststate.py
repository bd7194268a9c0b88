"""Which of its two speeds the host ran at while a case ran.

The shared virtual machine the reference figures come from runs the
same work at two speeds about 1.75x apart, and switches between them
at intervals of a fraction of a second to a minute; within the slower
speed it drifts by another 10 % or so.  How much of a run falls in each
speed differs from run to run, so a plain median over all passes moves
by up to 40 % between runs of the same code.

A fixed loop of the harness's own exact arithmetic (``probe``), timed
before every case and after the last case of a pass, tells the two
speeds apart: its times fall into two clusters.  ``slow_state_times``
keeps, for each case, only the passes where the probes on both sides of
it fell in the slower cluster, which is the more common one.  Each kept
time is scaled by ``REFERENCE_PROBE_S`` over the mean of those two
probes, which takes out the drift within the slower speed, and the case
gets the median of the scaled times.  A case with fewer than
``MIN_SLOW_PASSES`` such passes falls back to the median of all its
scaled times; the fallbacks are reported on standard error."""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import exact as X

# the probe's time in the slower state on the reference host (see README)
REFERENCE_PROBE_S = 0.0034
# passes a case needs in the slower state before its median is used
MIN_SLOW_PASSES = 5

_PROBE_POLY = {
    (e % 4, e // 4 % 4, e // 16 % 4, e // 64 % 4): Fraction((-1) ** e * (e % 47 + 1), e % 29 + 1)
    for e in range(7, 256, 9)
}
_PROBE_POINTS = [[Fraction(k * 7 % 19 - 9, k % 7 + 1) for k in range(j, j + 4)] for j in range(6)]


def probe() -> float:
    """Seconds taken by a fixed exact-arithmetic loop that does not touch the program."""
    start = time.perf_counter()
    for point in _PROBE_POINTS:
        X.evaluate(_PROBE_POLY, point)
    return time.perf_counter() - start


def split(values: list[float]) -> float:
    """The threshold of the best split of the values into a lower and a higher cluster.

    The split maximises the between-cluster variance (Otsu's method).
    """
    logs = sorted(math.log(v) for v in values)
    n = len(logs)
    prefix = [0.0]
    for x in logs:
        prefix.append(prefix[-1] + x)
    best = (-1.0, n // 2)
    # each cluster holds a tenth of the probes at least, so stalls are no cluster
    for k in range(max(1, n // 10), n - n // 10):
        low, high = prefix[k] / k, (prefix[n] - prefix[k]) / (n - k)
        between = k * (n - k) * (high - low) ** 2
        if between > best[0]:
            best = (between, k)
    k = best[1]
    return math.exp((logs[k - 1] + logs[k]) / 2)


def slow_state_times(times: list[list[float]], probes: list[list[float]]):
    """Per-case median time in the slower host state, at the reference speed.

    ``times[i][p]`` is case i in pass p; ``probes[p][i]`` and
    ``probes[p][i + 1]`` were timed right before and right after it.
    Returns (per-case seconds, share of executions kept, cases that fell back).
    """
    threshold = split([t for row in probes for t in row])
    per_case, kept, fallbacks = [], 0, 0
    for i, case_times in enumerate(times):
        scaled = [(t * 2 * REFERENCE_PROBE_S / (row[i] + row[i + 1]), min(row[i], row[i + 1]))
                  for t, row in zip(case_times, probes)]
        slow = [t for t, probe_s in scaled if probe_s > threshold]
        kept += len(slow)
        if len(slow) < MIN_SLOW_PASSES:
            slow = [t for t, _ in scaled]
            fallbacks += 1
        per_case.append(statistics.median(slow))
    return per_case, kept / sum(map(len, times)), fallbacks
