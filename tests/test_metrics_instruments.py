"""Unit tests for the metric instruments, the sliding window and the
per-class observations."""

import pytest

from repro.errors import ValidationError
from repro.monitoring.collector import ClassObservations, MonitoringSystem
from repro.monitoring.metrics import Gauge, Histogram, MetricsRegistry, SlidingWindow


class TestMetrics:
    def test_gauge(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.add(-2)
        assert gauge.value == 3

    def test_histogram_percentiles(self):
        histogram = Histogram("h")
        for value in range(1, 101):
            histogram.record(value)
        assert histogram.percentile(50) == 50
        assert histogram.percentile(99) == 99
        assert histogram.mean == pytest.approx(50.5)
        assert histogram.max == 100

    def test_histogram_empty(self):
        histogram = Histogram("h")
        assert histogram.percentile(99) == 0.0
        assert histogram.mean == 0.0

    def test_histogram_percentile_bounds(self):
        with pytest.raises(ValidationError):
            Histogram("h").percentile(0)

    def test_registry_snapshot(self):
        registry = MetricsRegistry()
        registry.gauge("a").set(5)
        registry.gauge("b").set(2)
        registry.histogram("lat").record(0.5)
        snapshot = registry.snapshot()
        assert snapshot["a"] == 5
        assert snapshot["b"] == 2
        assert snapshot["lat.mean"] == 0.5

    def test_registry_reuses_instruments(self):
        registry = MetricsRegistry()
        assert registry.gauge("x") is registry.gauge("x")


class TestHistogramReservoir:
    """The histogram bounds memory via reservoir sampling: aggregates
    (count/mean/max) stay exact, percentiles come from the sample."""

    def test_memory_bounded(self):
        histogram = Histogram("h", max_samples=100)
        for value in range(10_000):
            histogram.record(float(value))
        assert len(histogram._values) == 100
        assert histogram.count == 10_000
        assert histogram.overflowed == 9_900

    def test_exact_aggregates_survive_overflow(self):
        histogram = Histogram("h", max_samples=50)
        values = [float(v) for v in range(1, 1001)]
        for value in values:
            histogram.record(value)
        assert histogram.count == 1000
        assert histogram.mean == pytest.approx(sum(values) / len(values))
        assert histogram.max == 1000.0

    def test_percentiles_approximate_distribution(self):
        histogram = Histogram("h", max_samples=512)
        for value in range(1, 10_001):
            histogram.record(float(value))
        # Reservoir sampling keeps a uniform sample; p50 of a uniform
        # 1..10000 stream must land near the middle.
        assert 3000 < histogram.percentile(50) < 7000

    def test_below_capacity_is_exact(self):
        histogram = Histogram("h", max_samples=1000)
        for value in range(1, 101):
            histogram.record(float(value))
        assert histogram.overflowed == 0
        assert histogram.percentile(50) == 50

    def test_deterministic_across_instances(self):
        """Same name + same stream → same reservoir (seeded by name, not
        the process-salted str hash)."""
        a, b = Histogram("same", max_samples=20), Histogram("same", max_samples=20)
        for value in range(500):
            a.record(float(value))
            b.record(float(value))
        assert a._values == b._values

    def test_validation(self):
        with pytest.raises(ValidationError):
            Histogram("h", max_samples=0)


class TestSlidingWindow:
    def test_throughput_over_window(self):
        window = SlidingWindow(window_s=10.0)
        for t in range(10):
            window.record(float(t), 0.01)
        assert window.throughput(10.0) == pytest.approx(1.0, rel=0.15)

    def test_old_samples_evicted(self):
        window = SlidingWindow(window_s=5.0)
        window.record(0.0, 0.01)
        window.record(10.0, 0.01)
        assert len(window) == 1

    def test_error_rate(self):
        window = SlidingWindow(window_s=100.0)
        window.record(1.0, 0.01, ok=True)
        window.record(2.0, 0.01, ok=False)
        assert window.error_rate(3.0) == 0.5

    def test_latency_percentile(self):
        window = SlidingWindow(window_s=100.0)
        for latency in (0.1, 0.2, 0.9):
            window.record(1.0, latency)
        assert window.latency_percentile(1.0, 99) == 0.9

    def test_validation(self):
        with pytest.raises(ValidationError):
            SlidingWindow(0)


class TestMonitoringSystem:
    def test_per_class_observations(self, env):
        monitoring = MonitoringSystem(env)
        monitoring.class_changed("Image", object())  # deployed: observations are kept
        obs = monitoring.for_class("Image")
        obs.record_invocation(0.05, ok=True)
        obs.record_invocation(0.10, ok=False)
        assert obs.completed == 1
        assert obs.failed == 1
        assert monitoring.for_class("Image") is obs
        assert monitoring.observed_classes == ("Image",)

    def test_class_stats_are_its_observed_numbers(self, env):
        monitoring = MonitoringSystem(env)
        monitoring.class_changed("A", object())  # deployed: observations are kept
        # Before any invocation: zeros, and the read observes nothing.
        assert monitoring.class_stats("A") == dict.fromkeys(ClassObservations(env, "A").stats(), 0)
        assert monitoring.observed_classes == ()
        obs = monitoring.for_class("A")
        obs.record_invocation(0.01, ok=True)
        obs.record_invocation(0.03, ok=False)
        assert monitoring.class_stats("A") == obs.stats() == {
            "completed": 1,
            "failed": 1,
            "throughput_rps": obs.throughput_rps,
            "error_rate": 0.5,
            "latency_p99_ms": pytest.approx(30.0),
        }
