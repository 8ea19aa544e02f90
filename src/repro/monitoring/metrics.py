"""Metric primitives: gauges, histograms, sliding windows, and a registry.

The requirement-driven optimizer (§III-B: "Oparaca connects the runtime
to the monitoring system and reacts to changes in workload or
performance") consumes these through sliding windows; benchmarks read
the same registry to report results.

Instruments carry optional *labels* — `(name, labels)` identifies one
time series, Prometheus-style — so a single metric name (say
``qos.queue_delay_s``) fans out per class, node, or plane without inventing a
new dotted name per dimension.  The :class:`MetricsRegistry` keys
instruments by the full identity and the scraper/exposition layers
(:mod:`repro.monitoring.scraper`, :mod:`repro.monitoring.exposition`)
iterate it to build ring-buffered series and OpenMetrics text.
"""

from __future__ import annotations

import math
import random
import zlib
from array import array
from bisect import bisect_left, insort
from typing import Iterator, Mapping

from repro.errors import ValidationError
from repro.stats import nearest_rank, rank_index

__all__ = [
    "Gauge",
    "Histogram",
    "SlidingWindow",
    "MetricsRegistry",
    "label_key",
    "render_series_name",
]

#: Canonical form of a label set: sorted ``(key, value)`` string pairs.
LabelKey = tuple[tuple[str, str], ...]


def _checked_value(kind: str, name: str, value, *, what: str = "value") -> float:
    """A finite ``float`` recorded into the ``kind`` metric ``name``, or a
    clear error (its label is only formatted for a bad value).

    The same discipline as ``repro.model.nfr._checked_number``: booleans,
    NaN, and infinities all slip past plain comparisons (``NaN < 0`` is
    False) and would silently poison every aggregate downstream — a
    histogram's running sum that takes a NaN never recovers."""
    if isinstance(value, bool):
        raise ValidationError(f"{kind} {name!r} {what} must be a number, got a boolean")
    if not isinstance(value, (int, float)):
        raise ValidationError(
            f"{kind} {name!r} {what} must be a number, got {type(value).__name__} {value!r}"
        )
    result = float(value)
    if not math.isfinite(result):
        raise ValidationError(f"{kind} {name!r} {what} must be finite, got {value!r}")
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


class Gauge:
    """A point-in-time value."""

    def __init__(self, name: str, labels: Mapping[str, str] | None = None) -> None:
        self.name = name
        self.labels: LabelKey = label_key(labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = _checked_value("gauge", self.name, value)

    def add(self, delta: float) -> None:
        self.value += _checked_value("gauge", self.name, delta, what="delta")


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
        if type(value) is not float or not math.isfinite(value):
            value = _checked_value("histogram", self.name, value)
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


class SlidingWindow:
    """Completions over the trailing ``window_s`` seconds.

    Feeds the optimizer's live view of a class: throughput, error rate,
    and latency percentiles, all evicting samples older than the window.

    A sample is a row in three unboxed columns — completion time,
    latency, failed — not an object: rows before ``_head`` are evicted
    and compacted away in bulk, and ``_failures`` counts the failed rows
    still in the window.

    A reader's percentile folds the rows recorded since its last read
    into an exact multiset of the live latencies: ``_counts`` maps each
    distinct latency to its live rows, ``_values`` holds the distinct
    latencies in ascending order, and rows before ``_counted`` are in
    them.  A record stays three appends; an evicted row a reader counted
    leaves the counts.  Simulated latencies repeat (hundreds to a few
    thousand distinct values among tens of thousands of rows), so a
    fold is a count update per row and one insort per value new to the
    window, and a percentile a walk over the counts from the nearer
    end — the answer ``nearest_rank`` gives over the sorted rows,
    without sorting them.  Were every latency distinct, the insort
    would cost a move of the distinct values per row.

    Eviction semantics: a sample *exactly* at ``now - window_s`` is
    retained (the cutoff comparison is strict), and eviction assumes
    samples arrive in non-decreasing timestamp order — an out-of-order
    ``record`` with an old timestamp parks behind newer samples and
    survives until everything in front of it ages out.
    """

    #: Evicted rows the columns may hold before they are compacted (and
    #: never more than the live ones), so a row costs O(1) amortised.
    COMPACT_AFTER = 1024

    def __init__(self, window_s: float = 30.0) -> None:
        if window_s <= 0:
            raise ValidationError(f"window must be > 0, got {window_s}")
        self.window_s = window_s
        self._at = array("d")
        self._latency = array("d")
        self._failed = array("b")
        self._head = 0
        self._failures = 0
        self._counted = 0
        self._counts: dict[float, int] = {}
        self._values: list[float] = []

    def record(self, now: float, latency_s: float, ok: bool = True) -> None:
        self._at.append(now)
        self._latency.append(latency_s)
        self._failed.append(not ok)
        if not ok:
            self._failures += 1
        if self._at[self._head] < now - self.window_s:
            self._evict(now)

    def _evict(self, now: float) -> None:
        cutoff = now - self.window_s
        at, failed, head, end = self._at, self._failed, self._head, len(self._at)
        start = head
        while head < end and at[head] < cutoff:
            self._failures -= failed[head]
            head += 1
        if self._counted > start:  # rows a reader counted leave the counts
            counts, values = self._counts, self._values
            for value in self._latency[start : min(head, self._counted)]:
                held = counts[value] - 1
                if held:
                    counts[value] = held
                else:
                    del counts[value]
                    del values[bisect_left(values, value)]
        if head > self.COMPACT_AFTER and 2 * head > end:
            del at[:head]
            del self._latency[:head]
            del failed[:head]
            self._counted = max(0, self._counted - head)
            head = 0
        self._head = head

    def _count(self) -> None:
        """Fold the live rows recorded since the last read into the counts."""
        counts, values = self._counts, self._values
        for value in self._latency[max(self._counted, self._head) :]:
            held = counts.get(value)
            if held is None:
                counts[value] = 1
                insort(values, value)
            else:
                counts[value] = held + 1
        self._counted = len(self._latency)

    def throughput(self, now: float) -> float:
        """Completions/second over the trailing window."""
        self._evict(now)
        rows = len(self)
        if not rows:
            return 0.0
        span = min(self.window_s, max(now - self._at[self._head], 1e-9))
        return rows / span

    def error_rate(self, now: float) -> float:
        self._evict(now)
        rows = len(self)
        if not rows:
            return 0.0
        return self._failures / rows

    def latency_percentile(self, now: float, pct: float) -> float:
        self._evict(now)
        self._count()
        rows = len(self)
        if not rows:
            return 0.0
        rank, counts = rank_index(rows, pct), self._counts
        if 2 * rank < rows:
            values, skip = iter(self._values), rank
        else:  # nearer the top: count down from the largest
            values, skip = reversed(self._values), rows - 1 - rank
        seen = 0
        for value in values:
            seen += counts[value]
            if seen > skip:
                return value
        raise AssertionError("the counts sum to the live rows")

    def __len__(self) -> int:
        return len(self._at) - self._head


class MetricsRegistry:
    """Metric instruments keyed by ``(name, labels)``, created on first use.

    ``registry.gauge("qos.depth")`` and
    ``registry.gauge("qos.depth", {"class": "Img"})`` are distinct
    series under one name; the exposition layer groups them.
    """

    def __init__(self) -> None:
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}

    def gauge(self, name: str, labels: Mapping[str, str] | None = None) -> Gauge:
        key = (name, label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, labels)
        return instrument

    def discard(self, gauge: Gauge) -> None:
        """Forget a gauge whose number is gone."""
        self._gauges.pop((gauge.name, gauge.labels), None)

    def discard_labelled(self, key: str, value: str) -> None:
        """Forget every instrument carrying the label ``key=value``."""
        for table in (self._gauges, self._histograms):
            for name_labels in [nl for nl in table if (key, value) in nl[1]]:
                del table[name_labels]

    def histogram(self, name: str, labels: Mapping[str, str] | None = None) -> Histogram:
        key = (name, label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, labels=labels)
        return instrument

    # -- iteration (scraper / exposition) ---------------------------------

    def gauges(self) -> Iterator[Gauge]:
        return iter(self._gauges.values())

    def histograms(self) -> Iterator[Histogram]:
        return iter(self._histograms.values())

    def __len__(self) -> int:
        return len(self._gauges) + len(self._histograms)

    def snapshot(self) -> dict[str, float]:
        """A flat view of the gauges plus :meth:`summaries`.

        Unlabeled instruments keep their bare name; labeled series
        render as ``name{k=v,...}``.
        """
        out = {
            render_series_name(gauge.name, gauge.labels): gauge.value
            for gauge in self._gauges.values()
        }
        out.update(self.summaries())
        return out

    def summaries(self) -> dict[str, float]:
        """Each histogram as ``<series>.mean`` and ``<series>.p99``."""
        out: dict[str, float] = {}
        for histogram in self._histograms.values():
            base = render_series_name(histogram.name, histogram.labels)
            out[f"{base}.mean"] = histogram.mean
            out[f"{base}.p99"] = histogram.percentile(99) if histogram.count else 0.0
        return out

