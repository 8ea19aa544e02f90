"""The estimators the benchmark reports, and two readings of the host.

Noise on a small shared box is one-sided (something else takes the core
for a few seconds), so whole-run means drift by tens of percent while
the best slices repeat.  Host-time rates are therefore taken over many
equal, overlapping slices and the best one is reported; median,
quartiles and deciles are printed beside it so the reader sees how much
was discarded.  README.md has the measurements behind that choice.
"""

from __future__ import annotations

import math
import resource
import time
from typing import Sequence

from repro.sim.workload import LoadStats


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile, by the platform's own ``LoadStats`` rule."""
    return LoadStats(latencies=list(values)).latency_percentile(pct)


def pair_rates(steps: Sequence[tuple[int, float]]) -> list[float]:
    """Ops per second over every two consecutive ``(ops, seconds)``
    steps: slices of two steps that overlap by one."""
    return [
        (ops_a + ops_b) / (seconds_a + seconds_b)
        for (ops_a, seconds_a), (ops_b, seconds_b) in zip(steps, steps[1:])
    ]


def describe(values: Sequence[float]) -> dict[str, float]:
    return {
        "best": max(values),
        "best_decile": quantile(values, 0.9),
        "q3": quantile(values, 0.75),
        "median": quantile(values, 0.5),
        "q1": quantile(values, 0.25),
        "worst_decile": quantile(values, 0.1),
        "slices": float(len(values)),
    }


def calibrate(rounds: int = 5) -> float:
    """Seconds the fastest of ``rounds`` fixed pure-Python loops took.
    Read before and after a workload; a drift beyond 10 % marks the run
    ``noisy`` (the box, not the code, changed speed)."""
    best = math.inf
    for _ in range(rounds):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i & 7
        best = min(best, time.perf_counter() - started)
    return best


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (kB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
