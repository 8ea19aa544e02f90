"""Load generators and measurement for simulated experiments.

The client models:

* :class:`OpenLoopGenerator` — arrivals at a configured rate regardless
  of completions (saturation testing; what Fig. 3's load driver does).
* :class:`ClosedLoopGenerator` — ``clients`` concurrent loops, each
  issuing the next request after the previous one finishes (optionally
  with think time).  Closed loops self-throttle, which is the right
  model for measuring *capacity*: throughput ramps until a bottleneck
  saturates, without unbounded queue growth.
* :class:`HerdLoad` — a thundering herd: ``count`` requests at the same
  instant, run until every one is done (a burst after an idle spell, a
  miss storm after a node failure).

All record per-request latency into :class:`LoadStats`, which reports
throughput over a measurement window that excludes warm-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.sim.kernel import Environment, all_of
from repro.sim.rng import RngStreams
from repro.stats import nearest_rank

__all__ = ["LoadStats", "OpenLoopGenerator", "ClosedLoopGenerator", "HerdLoad"]

RequestFactory = Callable[[int], Generator[Any, Any, Any]]


@dataclass
class LoadStats:
    """Accumulates completions and latencies for one experiment run."""

    warmup_s: float = 0.0
    issued: int = 0
    completed: int = 0
    failed: int = 0
    measured_completed: int = 0
    latencies: list[float] = field(default_factory=list)
    first_measured_at: float = math.inf
    last_completed_at: float = 0.0

    def record(self, start: float, end: float, ok: bool) -> None:
        """Record one finished request."""
        self.completed += 1
        if not ok:
            self.failed += 1
        self.last_completed_at = end
        if start >= self.warmup_s:
            self.measured_completed += 1
            self.latencies.append(end - start)
            self.first_measured_at = min(self.first_measured_at, start)

    def throughput(self, horizon_s: float) -> float:
        """Completed requests/second over the post-warm-up window."""
        window = horizon_s - self.warmup_s
        if window <= 0:
            return 0.0
        return self.measured_completed / window

    def latency_percentile(self, pct: float) -> float:
        """Latency percentile (0 < pct <= 100) over measured requests."""
        return nearest_rank(sorted(self.latencies), pct)

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)


def _timed(
    env: Environment, request: Generator[Any, Any, Any], *sinks: LoadStats
) -> Generator[Any, Any, None]:
    """Run one request, then record it in every sink; a request that
    raises is a failed one (load drivers tolerate app errors)."""
    start = env.now
    ok = True
    try:
        yield from request
    except Exception:  # noqa: BLE001
        ok = False
    for sink in sinks:
        sink.record(start, env.now, ok)


class OpenLoopGenerator:
    """Issues requests at ``rate`` per second until ``horizon_s``.

    ``request_factory(i)`` must return a process generator performing
    request ``i``; each arrival is spawned as an independent process.
    """

    def __init__(
        self,
        env: Environment,
        request_factory: RequestFactory,
        rate: float,
        horizon_s: float,
        warmup_s: float = 0.0,
        poisson: bool = True,
        rng: RngStreams | None = None,
    ) -> None:
        self.env = env
        self.request_factory = request_factory
        self.rate = rate
        self.horizon_s = horizon_s
        self.stats = LoadStats(warmup_s=warmup_s)
        self._poisson = poisson
        self._rng = (rng or RngStreams(0)).stream("open-loop-arrivals")
        self.process = env.process(self._drive())

    def _interarrival(self) -> float:
        if self._poisson:
            return self._rng.expovariate(self.rate)
        return 1.0 / self.rate

    def _drive(self) -> Generator[Any, Any, None]:
        index = 0
        while self.env.now < self.horizon_s:
            yield self.env.timeout(self._interarrival())
            if self.env.now >= self.horizon_s:
                break
            self.stats.issued += 1
            self.env.process(_timed(self.env, self.request_factory(index), self.stats))
            index += 1


class PhasedOpenLoopGenerator:
    """Open-loop arrivals whose rate follows a phase schedule.

    ``phases`` is a list of ``(duration_s, rate)`` pairs, cycled until
    ``horizon_s`` — the "unpredictable on-demand workloads" (paper
    §II-D) that serverless autoscaling exists for.  Per-phase statistics
    are kept separately so experiments can compare, e.g., p99 latency
    during bursts against the baseline phases.
    """

    def __init__(
        self,
        env: Environment,
        request_factory: RequestFactory,
        phases: list[tuple[float, float]],
        horizon_s: float,
        poisson: bool = True,
        rng: RngStreams | None = None,
    ) -> None:
        if not phases:
            raise ValueError("phases must be non-empty")
        for duration, rate in phases:
            if duration <= 0 or rate < 0:
                raise ValueError(f"bad phase ({duration}, {rate})")
        self.env = env
        self.request_factory = request_factory
        self.phases = list(phases)
        self.horizon_s = horizon_s
        self.stats = LoadStats()
        self.phase_stats: list[LoadStats] = [LoadStats() for _ in phases]
        self._poisson = poisson
        self._rng = (rng or RngStreams(0)).stream("phased-arrivals")
        self.process = env.process(self._drive())

    def _drive(self) -> Generator[Any, Any, None]:
        index = 0
        while self.env.now < self.horizon_s:
            for phase_index, (duration, rate) in enumerate(self.phases):
                phase_end = min(self.env.now + duration, self.horizon_s)
                while self.env.now < phase_end:
                    if rate <= 0:
                        yield self.env.timeout(phase_end - self.env.now)
                        break
                    gap = (
                        self._rng.expovariate(rate) if self._poisson else 1.0 / rate
                    )
                    if self.env.now + gap >= phase_end:
                        yield self.env.timeout(phase_end - self.env.now)
                        break
                    yield self.env.timeout(gap)
                    self.stats.issued += 1
                    self.phase_stats[phase_index].issued += 1
                    sinks = (self.stats, self.phase_stats[phase_index])
                    self.env.process(_timed(self.env, self.request_factory(index), *sinks))
                    index += 1
                if self.env.now >= self.horizon_s:
                    return


class ClosedLoopGenerator:
    """``clients`` concurrent request loops with optional think time."""

    def __init__(
        self,
        env: Environment,
        request_factory: RequestFactory,
        clients: int,
        horizon_s: float,
        warmup_s: float = 0.0,
        think_time_s: float = 0.0,
    ) -> None:
        self.env = env
        self.request_factory = request_factory
        self.clients = clients
        self.horizon_s = horizon_s
        self.think_time_s = think_time_s
        self.stats = LoadStats(warmup_s=warmup_s)
        self.processes = [env.process(self._client(c)) for c in range(clients)]

    def _client(self, client_id: int) -> Generator[Any, Any, None]:
        index = client_id
        while self.env.now < self.horizon_s:
            yield from _timed(self.env, self.request_factory(index), self.stats)
            self.stats.issued += 1
            index += self.clients
            if self.think_time_s:
                yield self.env.timeout(self.think_time_s)


class HerdLoad:
    """All at once, run until all done: each :meth:`fire` starts a herd
    of requests in one instant and runs the environment until the last
    of them finishes.  ``stats`` accumulates over every herd fired."""

    def __init__(self, env: Environment, request_factory: RequestFactory) -> None:
        self.env = env
        self.request_factory = request_factory
        self.stats = LoadStats()

    def fire(self, count: int) -> None:
        """Start requests ``0 .. count-1`` now; return when all are done."""
        self.stats.issued += count
        processes = [
            self.env.process(_timed(self.env, self.request_factory(index), self.stats))
            for index in range(count)
        ]
        self.env.run(until=all_of(self.env, processes))
