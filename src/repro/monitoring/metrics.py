"""Metric primitives: counters, gauges, histograms, and a registry.

The requirement-driven optimizer (§III-B: "Oparaca connects the runtime
to the monitoring system and reacts to changes in workload or
performance") consumes these through sliding windows; benchmarks read
the same registry to report results.

Instruments carry optional *labels* — `(name, labels)` identifies one
time series, Prometheus-style — so a single metric name (say
``qos.sheds``) fans out per class, node, or plane without inventing a
new dotted name per dimension.  The :class:`MetricsRegistry` keys
instruments by the full identity and the scraper/exposition layers
(:mod:`repro.monitoring.scraper`, :mod:`repro.monitoring.exposition`)
iterate it to build ring-buffered series and OpenMetrics text.
"""

from __future__ import annotations

import math
import random
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.errors import ValidationError
from repro.stats import nearest_rank

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "SlidingWindow",
    "MetricsRegistry",
    "label_key",
    "render_series_name",
    "set_counter",
]

#: Canonical form of a label set: sorted ``(key, value)`` string pairs.
LabelKey = tuple[tuple[str, str], ...]


def _checked_value(metric: str, value, *, what: str = "value") -> float:
    """A finite ``float`` recorded into a metric, or a clear error.

    The same discipline as ``repro.model.nfr._checked_number``: booleans,
    NaN, and infinities all slip past plain comparisons (``NaN < 0`` is
    False) and would silently poison every aggregate downstream — a
    counter incremented by NaN never recovers."""
    if isinstance(value, bool):
        raise ValidationError(f"{metric} {what} must be a number, got a boolean")
    if not isinstance(value, (int, float)):
        raise ValidationError(
            f"{metric} {what} must be a number, got {type(value).__name__} {value!r}"
        )
    result = float(value)
    if not math.isfinite(result):
        raise ValidationError(f"{metric} {what} must be finite, got {value!r}")
    return result


def label_key(labels: Mapping[str, str] | None) -> LabelKey:
    """The canonical, hashable identity of a label set.

    Keys and values are coerced to strings and sorted by key, so
    ``{"class": "Img", "node": "vm-1"}`` and the same mapping in any
    insertion order identify the same series."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def render_series_name(name: str, labels: LabelKey) -> str:
    """``name{k=v,...}`` — the flat-snapshot key of a labeled series."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str, labels: Mapping[str, str] | None = None) -> None:
        self.name = name
        self.labels: LabelKey = label_key(labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        amount = _checked_value(f"counter {self.name!r}", amount, what="increment")
        if amount < 0:
            raise ValidationError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value."""

    def __init__(self, name: str, labels: Mapping[str, str] | None = None) -> None:
        self.name = name
        self.labels: LabelKey = label_key(labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = _checked_value(f"gauge {self.name!r}", value)

    def add(self, delta: float) -> None:
        self.value += _checked_value(f"gauge {self.name!r}", delta, what="delta")


class Histogram:
    """Bounded-memory value distribution.

    Exact while at most ``max_samples`` values have been recorded;
    beyond that a uniform reservoir (Vitter's algorithm R) keeps a
    fixed-size sample, so million-invocation runs hold memory constant.
    ``count``, ``mean``, and ``max`` stay exact regardless (running
    aggregates); ``percentile`` answers from the reservoir, which is the
    full data set until overflow and an unbiased sample after.
    """

    DEFAULT_MAX_SAMPLES = 8192

    def __init__(
        self,
        name: str,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        if max_samples < 1:
            raise ValidationError(f"max_samples must be >= 1, got {max_samples}")
        self.name = name
        self.labels: LabelKey = label_key(labels)
        self.max_samples = max_samples
        self._values: list[float] = []
        self._sorted = True
        self._count = 0
        self._sum = 0.0
        self._max: float | None = None
        # Seeded per-(name, labels) so replayed runs produce identical
        # percentile reports (str hash is salted; never use it).  An
        # unlabeled histogram keeps the historical name-only seed.
        seed_text = render_series_name(name, self.labels)
        self._rng = random.Random(zlib.crc32(seed_text.encode("utf-8", "replace")))

    def record(self, value: float) -> None:
        value = _checked_value(f"histogram {self.name!r}", value)
        self._count += 1
        self._sum += value
        if self._max is None or value > self._max:
            self._max = value
        if len(self._values) < self.max_samples:
            self._values.append(value)
            self._sorted = False
            return
        # Reservoir: the new value replaces a random resident with
        # probability max_samples / count, keeping the sample uniform.
        slot = self._rng.randrange(self._count)
        if slot < self.max_samples:
            self._values[slot] = value
            self._sorted = False

    @property
    def count(self) -> int:
        """Total values recorded (not the retained sample size)."""
        return self._count

    @property
    def overflowed(self) -> int:
        """Values recorded beyond the reservoir capacity."""
        return max(0, self._count - self.max_samples)

    @property
    def mean(self) -> float:
        if not self._count:
            return 0.0
        return self._sum / self._count

    @property
    def sum(self) -> float:
        """Exact running sum of every recorded value."""
        return self._sum

    def percentile(self, pct: float) -> float:
        """Value at percentile ``pct`` (0 < pct <= 100)."""
        if not 0 < pct <= 100:
            raise ValidationError(f"percentile must be in (0, 100], got {pct}")
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        return nearest_rank(self._values, pct)

    @property
    def max(self) -> float:
        return self._max if self._max is not None else 0.0


@dataclass(frozen=True, slots=True)
class _WindowSample:
    at: float
    value: float
    ok: bool


class SlidingWindow:
    """Completions over the trailing ``window_s`` seconds.

    Feeds the optimizer's live view of a class: throughput, error rate,
    and latency percentiles, all evicting samples older than the window.

    Eviction semantics: a sample *exactly* at ``now - window_s`` is
    retained (the cutoff comparison is strict), and eviction assumes
    samples arrive in non-decreasing timestamp order — an out-of-order
    ``record`` with an old timestamp parks behind newer samples and
    survives until everything in front of it ages out.
    """

    def __init__(self, window_s: float = 30.0) -> None:
        if window_s <= 0:
            raise ValidationError(f"window must be > 0, got {window_s}")
        self.window_s = window_s
        self._samples: deque[_WindowSample] = deque()

    def record(self, now: float, latency_s: float, ok: bool = True) -> None:
        self._samples.append(_WindowSample(now, latency_s, ok))
        self._evict(now)

    def _evict(self, now: float) -> None:
        cutoff = now - self.window_s
        while self._samples and self._samples[0].at < cutoff:
            self._samples.popleft()

    def throughput(self, now: float) -> float:
        """Completions/second over the trailing window."""
        self._evict(now)
        if not self._samples:
            return 0.0
        span = min(self.window_s, max(now - self._samples[0].at, 1e-9))
        return len(self._samples) / span

    def error_rate(self, now: float) -> float:
        self._evict(now)
        if not self._samples:
            return 0.0
        return sum(1 for s in self._samples if not s.ok) / len(self._samples)

    def latency_percentile(self, now: float, pct: float) -> float:
        self._evict(now)
        return nearest_rank(sorted(s.value for s in self._samples), pct)

    def __len__(self) -> int:
        return len(self._samples)


class MetricsRegistry:
    """Metric instruments keyed by ``(name, labels)``, created on first use.

    ``registry.counter("qos.sheds")`` and
    ``registry.counter("qos.sheds", {"class": "Img"})`` are distinct
    series under one name; the exposition layer groups them.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}

    def counter(self, name: str, labels: Mapping[str, str] | None = None) -> Counter:
        key = (name, label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, labels)
        return instrument

    def gauge(self, name: str, labels: Mapping[str, str] | None = None) -> Gauge:
        key = (name, label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, labels)
        return instrument

    def histogram(self, name: str, labels: Mapping[str, str] | None = None) -> Histogram:
        key = (name, label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, labels=labels)
        return instrument

    # -- iteration (scraper / exposition) ---------------------------------

    def counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def gauges(self) -> Iterator[Gauge]:
        return iter(self._gauges.values())

    def histograms(self) -> Iterator[Histogram]:
        return iter(self._histograms.values())

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def snapshot(self) -> dict[str, float]:
        """A flat view of counters and gauges (histograms as mean/p99).

        Unlabeled instruments keep their bare name (the historical
        format); labeled series render as ``name{k=v,...}``.
        """
        out: dict[str, float] = {}
        for counter in self._counters.values():
            out[render_series_name(counter.name, counter.labels)] = counter.value
        for gauge in self._gauges.values():
            out[render_series_name(gauge.name, gauge.labels)] = gauge.value
        for histogram in self._histograms.values():
            base = render_series_name(histogram.name, histogram.labels)
            out[f"{base}.mean"] = histogram.mean
            out[f"{base}.p99"] = histogram.percentile(99) if histogram.count else 0.0
        return out


def set_counter(
    registry: MetricsRegistry,
    name: str,
    value: float,
    labels: Mapping[str, str] | None = None,
) -> None:
    """Pull-model counter update: raise the instrument to ``value``.

    Collectors read cumulative statistics off components and mirror
    them into registry counters; the counter moves by the positive
    delta (a stale or equal value is a no-op, keeping monotonicity).
    """
    counter = registry.counter(name, labels)
    delta = value - counter.value
    if delta > 0:
        counter.inc(delta)
