"""Deterministic sim-time metrics scraping into ring-buffered series.

A Prometheus server scrapes registries on a fixed wall-clock interval;
here the :class:`MetricsScraper` is a simulation *process* that wakes
every ``interval_s`` simulated seconds, runs its registered collectors
(pull-model hooks each plane contributes to refresh gauges from its own
stats), samples every instrument in the registry into a bounded
:class:`TimeSeries`, and finally invokes its ``on_scrape`` listeners —
which is how the :class:`~repro.monitoring.slo.SloEvaluator` gets its
clock.  Because scrapes happen in simulated time, a seeded run replays
to an identical set of series, point for point.

Histograms fan out into multiple series per scrape: cumulative
``:count`` and ``:sum`` plus ``:p50``/``:p95``/``:p99`` quantile
gauges, so a latency trajectory survives even though the underlying
reservoir is bounded.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Callable, Iterator, Mapping

from repro.errors import ValidationError
from repro.monitoring.metrics import (
    LabelKey,
    MetricsRegistry,
    label_key,
    render_series_name,
)
from repro.sim.kernel import Environment

__all__ = ["TimeSeries", "MetricsScraper"]

#: Histogram quantiles sampled into their own gauge series each scrape.
HISTOGRAM_QUANTILES = (50, 95, 99)


class TimeSeries:
    """One metric's sampled history: the newest ``capacity`` points
    ``(at, value)``.

    A point is a row in two unboxed columns, not a tuple (the
    :class:`~repro.monitoring.metrics.SlidingWindow` idiom): rows before
    ``_head`` have left the ring and are compacted away in bulk, so a
    point costs O(1) amortised and about two doubles of memory."""

    __slots__ = ("name", "labels", "kind", "capacity", "_at", "_value", "_head")

    def __init__(self, name: str, labels: LabelKey, kind: str, capacity: int) -> None:
        self.name = name
        self.labels = labels
        self.kind = kind  # "counter" | "gauge"
        self.capacity = capacity
        self._at = array("d")
        self._value = array("d")
        self._head = 0

    def append(self, at: float, value: float) -> None:
        self._at.append(at)
        self._value.append(value)
        if len(self._at) - self._head > self.capacity:
            self._head += 1
            # Compact once a quarter of the ring has left it: at most
            # 1.25 rows held per retained point.
            if 4 * self._head >= self.capacity:
                del self._at[: self._head]
                del self._value[: self._head]
                self._head = 0

    def points(self) -> list[tuple[float, float]]:
        head = self._head
        return list(zip(self._at[head:], self._value[head:]))

    @property
    def latest(self) -> float:
        return self._value[-1] if len(self) else 0.0

    def rate(self, window_s: float, now: float) -> float:
        """Per-second increase over the trailing ``window_s`` seconds.

        Meaningful for ``counter`` series; for a gauge it is the slope.
        Returns 0 with fewer than two retained points in the window.
        """
        if window_s <= 0:
            raise ValidationError(f"rate window must be > 0, got {window_s}")
        at = self._at
        end = len(at)
        # The first retained row inside the window (rows are in
        # non-decreasing time order, so a bisection finds it).
        first = bisect_left(at, now - window_s, self._head, end)
        last = end - 1
        if first >= end or at[last] <= at[first]:
            return 0.0
        return (self._value[last] - self._value[first]) / (at[last] - at[first])

    def __len__(self) -> int:
        return len(self._at) - self._head

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TimeSeries {render_series_name(self.name, self.labels)} "
            f"kind={self.kind} points={len(self)}>"
        )


class MetricsScraper:
    """Samples a :class:`MetricsRegistry` on a fixed simulated interval."""

    def __init__(
        self,
        env: Environment,
        registry: MetricsRegistry,
        interval_s: float = 0.5,
        capacity: int = 720,
    ) -> None:
        if interval_s <= 0:
            raise ValidationError(f"scrape interval must be > 0, got {interval_s}")
        if capacity < 2:
            raise ValidationError(f"series capacity must be >= 2, got {capacity}")
        self.env = env
        self.registry = registry
        self.interval_s = interval_s
        self.capacity = capacity
        #: Pull hooks run before sampling; each plane registers one to
        #: refresh its gauges from its own statistics.
        self.collectors: list[Callable[[], None]] = []
        #: Listeners run after sampling with the scrape timestamp (the
        #: SLO evaluator's clock).
        self.on_scrape: list[Callable[[float], None]] = []
        self.scrapes = 0
        self._series: dict[tuple[str, LabelKey], TimeSeries] = {}
        self._running = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Launch the periodic scrape loop as a simulation process."""
        if self._running:
            return
        self._running = True
        self.env.process(self._run())

    def stop(self) -> None:
        self._running = False

    def _run(self):
        while self._running:
            yield self.env.timeout(self.interval_s)
            if not self._running:
                return
            self.scrape_once()

    # -- scraping ---------------------------------------------------------

    def scrape_once(self) -> float:
        """Collect, sample every instrument, notify listeners.

        Returns the scrape timestamp.  Callable directly (tests, CLI
        final flush) as well as from the periodic loop.
        """
        now = self.env.now
        for collector in self.collectors:
            collector()
        for gauge in self.registry.gauges():
            self._sample(gauge.name, gauge.labels, "gauge", now, gauge.value)
        for histogram in self.registry.histograms():
            self._sample(
                f"{histogram.name}:count", histogram.labels, "counter", now,
                float(histogram.count),
            )
            self._sample(
                f"{histogram.name}:sum", histogram.labels, "counter", now,
                histogram.sum,
            )
            if histogram.count:
                for pct in HISTOGRAM_QUANTILES:
                    self._sample(
                        f"{histogram.name}:p{pct}", histogram.labels, "gauge", now,
                        histogram.percentile(pct),
                    )
        self.scrapes += 1
        for listener in self.on_scrape:
            listener(now)
        return now

    def forget(self, name: str, labels: LabelKey) -> None:
        """Drop the history of an instrument the registry let go."""
        self._series.pop((name, labels), None)

    def forget_labelled(self, key: str, value: str) -> None:
        """Drop the history of every series carrying the label ``key=value``."""
        for name_labels in [nl for nl in self._series if (key, value) in nl[1]]:
            del self._series[name_labels]

    def _sample(
        self, name: str, labels: LabelKey, kind: str, at: float, value: float
    ) -> None:
        key = (name, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = TimeSeries(name, labels, kind, self.capacity)
        series.append(at, value)

    # -- queries ----------------------------------------------------------

    def series(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> TimeSeries | None:
        return self._series.get((name, label_key(labels)))

    def all_series(self) -> Iterator[TimeSeries]:
        """Every sampled series, sorted by (name, labels) for stable output."""
        for key in sorted(self._series):
            yield self._series[key]

    def __len__(self) -> int:
        return len(self._series)
