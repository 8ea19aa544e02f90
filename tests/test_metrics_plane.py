"""Tests for the metrics plane: labeled instruments, scraper, exposition,
SLO burn-rate evaluation, kernel profiling, and the platform wiring."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.durability.plane import DurabilityPlane
from repro.errors import ValidationError
from repro.model.nfr import NonFunctionalRequirements, QosRequirement
from repro.model.pkg import loads_package
from repro.monitoring.collector import MonitoringSystem
from repro.monitoring.events import EventLog
from repro.monitoring.exposition import (
    escape_label_value,
    metrics_json,
    render_openmetrics,
    sanitize_metric_name,
)
from repro.monitoring.metrics import (
    Gauge,
    Histogram,
    MetricsRegistry,
    SlidingWindow,
    label_key,
    render_series_name,
)
from repro.monitoring.plane import MetricsConfig
from repro.monitoring.scraper import MetricsScraper
from repro.monitoring.slo import BurnWindow, SloConfig, SloEvaluator
from repro.plane import Plane
from repro.render import numbers
from repro.sim.kernel import all_of

from tests.helpers import LISTING1_YAML, make_platform


# -- labeled instruments -----------------------------------------------------


class TestLabeledRegistry:
    def test_labels_create_distinct_series(self):
        registry = MetricsRegistry()
        plain = registry.gauge("req")
        labeled = registry.gauge("req", {"class": "Img"})
        plain.set(1)
        labeled.set(2)
        assert plain.value == 1
        assert labeled.value == 2

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        a = registry.gauge("g", {"x": "1", "y": "2"})
        b = registry.gauge("g", {"y": "2", "x": "1"})
        assert a is b

    def test_label_values_coerced_to_str(self):
        assert label_key({"n": 3}) == (("n", "3"),)

    def test_snapshot_renders_labeled_series(self):
        registry = MetricsRegistry()
        registry.gauge("req").set(5)
        registry.gauge("req", {"class": "Img"}).set(7)
        snap = registry.snapshot()
        assert snap["req"] == 5
        assert snap['req{class=Img}'] == 7

    def test_render_series_name(self):
        assert render_series_name("m", label_key({"b": "2", "a": "1"})) == "m{a=1,b=2}"
        assert render_series_name("m", label_key(None)) == "m"

    def test_len_counts_all_instruments(self):
        registry = MetricsRegistry()
        registry.gauge("a")
        registry.gauge("b", {"k": "v"})
        registry.histogram("c")
        assert len(registry) == 3


class TestValueValidation:
    """Satellite 1: reject NaN/inf/bool at every recording surface."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), True])
    def test_gauge_set_rejects(self, bad):
        with pytest.raises(ValidationError):
            Gauge("g").set(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf"), False])
    def test_gauge_add_rejects(self, bad):
        with pytest.raises(ValidationError):
            Gauge("g").add(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), True, "0.5"])
    def test_histogram_record_rejects(self, bad):
        with pytest.raises(ValidationError):
            Histogram("h").record(bad)

    def test_rejected_value_leaves_state_untouched(self):
        histogram = Histogram("h")
        histogram.record(1.0)
        with pytest.raises(ValidationError):
            histogram.record(float("nan"))
        assert histogram.count == 1
        assert histogram.sum == 1.0


class TestLabeledReservoirSeed:
    """Satellite 2: the reservoir RNG is seeded from (name, labels)."""

    def test_same_series_same_reservoir(self):
        a = Histogram("lat", max_samples=16, labels={"class": "Img"})
        b = Histogram("lat", max_samples=16, labels={"class": "Img"})
        for i in range(500):
            a.record(i * 0.001)
            b.record(i * 0.001)
        assert a._values == b._values

    def test_distinct_labels_distinct_stream(self):
        a = Histogram("lat", max_samples=16, labels={"class": "Img"})
        b = Histogram("lat", max_samples=16, labels={"class": "Doc"})
        for i in range(500):
            a.record(i * 0.001)
            b.record(i * 0.001)
        # Same data, independent reservoir decisions.
        assert a._values != b._values

    def test_unlabeled_keeps_name_only_seed(self):
        import random
        import zlib

        histogram = Histogram("lat")
        expected = random.Random(zlib.crc32(b"lat"))
        assert histogram._rng.getstate() == expected.getstate()


# -- sliding-window eviction boundaries (satellite 3) ------------------------


class TestSlidingWindowEviction:
    def test_sample_exactly_at_cutoff_is_retained(self):
        window = SlidingWindow(10.0)
        window.record(0.0, 0.5)
        assert window.latency_percentile(10.0, 50) == 0.5
        assert len(window) == 1

    def test_sample_just_past_cutoff_is_evicted(self):
        window = SlidingWindow(10.0)
        window.record(0.0, 0.5)
        assert window.latency_percentile(10.000001, 50) == 0.0
        assert len(window) == 0

    def test_out_of_order_sample_parks_behind_newer(self):
        window = SlidingWindow(10.0)
        window.record(8.0, 0.1)
        window.record(2.0, 0.9)  # out of order: behind the t=8 sample
        # At t=13 the t=2 sample is stale, but eviction stops at the
        # front (t=8, retained), so the stale sample survives with it.
        assert window.error_rate(13.0) == 0.0
        assert len(window) == 2
        # Once the front ages out, both go.
        assert window.throughput(18.5) == 0.0
        assert len(window) == 0


# -- scraper ------------------------------------------------------------------


class TestMetricsScraper:
    def test_scrape_samples_all_instruments(self, env):
        registry = MetricsRegistry()
        registry.gauge("c", {"k": "v"}).set(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h").record(0.2)
        scraper = MetricsScraper(env, registry, interval_s=1.0)
        scraper.scrape_once()
        assert scraper.series("c", {"k": "v"}).latest == 3
        assert scraper.series("g").latest == 1.5
        assert scraper.series("h:count").latest == 1
        assert scraper.series("h:p50").latest == 0.2

    def test_collectors_run_before_sampling(self, env):
        registry = MetricsRegistry()
        scraper = MetricsScraper(env, registry, interval_s=1.0)
        scraper.collectors.append(lambda: registry.gauge("pulled").add(1))
        scraper.scrape_once()
        assert scraper.series("pulled").latest == 1

    def test_ring_buffer_capacity(self, env):
        registry = MetricsRegistry()
        registry.gauge("g").set(0.0)
        scraper = MetricsScraper(env, registry, interval_s=1.0, capacity=3)
        for _ in range(7):
            scraper.scrape_once()
        assert len(scraper.series("g")) == 3

    def test_periodic_loop_and_counter_rate(self, env):
        registry = MetricsRegistry()
        ticks = registry.gauge("ticks")

        def workload(env):
            while True:
                yield env.timeout(0.5)
                ticks.add(1)

        env.process(workload(env))
        scraper = MetricsScraper(env, registry, interval_s=1.0)
        scraper.start()
        env.run(until=10.0)
        series = scraper.series("ticks")
        assert series is not None and len(series) == 10
        assert series.rate(5.0, env.now) == pytest.approx(2.0)
        scraper.stop()

    def test_on_scrape_receives_timestamp(self, env):
        registry = MetricsRegistry()
        scraper = MetricsScraper(env, registry, interval_s=2.0)
        seen = []
        scraper.on_scrape.append(seen.append)
        scraper.start()
        env.run(until=7.0)
        assert seen == [2.0, 4.0, 6.0]

    def test_validation(self, env):
        with pytest.raises(ValidationError):
            MetricsScraper(env, MetricsRegistry(), interval_s=0)
        with pytest.raises(ValidationError):
            MetricsScraper(env, MetricsRegistry(), capacity=1)


# -- exposition ---------------------------------------------------------------


class TestExposition:
    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("qos.queue_delay_s") == "qos_queue_delay_s"
        assert sanitize_metric_name("9lives") == "_9lives"
        assert sanitize_metric_name("a-b c{d}") == "a_b_c_d_"

    def test_escape_label_value(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_render_basic(self):
        registry = MetricsRegistry()
        registry.gauge("req.total", {"class": "Img"}).set(4)
        registry.gauge("depth").set(2.0)
        text = render_openmetrics(registry)
        assert "# TYPE req_total gauge" in text
        assert 'req_total{class="Img"} 4' in text
        assert "# TYPE depth gauge" in text
        assert text.endswith("# EOF\n")

    def test_histogram_as_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_s", {"class": "Img"})
        for value in (0.1, 0.2, 0.3):
            histogram.record(value)
        text = render_openmetrics(registry)
        assert 'lat_s_count{class="Img"} 3' in text
        assert 'lat_s_sum{class="Img"} 0.6' in text
        assert 'lat_s{class="Img",quantile="0.50"}' in text

    def test_escaped_label_values_round_trip(self):
        registry = MetricsRegistry()
        registry.gauge("c", {"path": 'a\\b"c\nd'}).set(1)
        text = render_openmetrics(registry)
        assert 'c{path="a\\\\b\\"c\\nd"} 1' in text

    def test_sanitization_collision_keeps_both_samples(self):
        registry = MetricsRegistry()
        registry.gauge("a.b").set(1)
        registry.gauge("a_b").set(2.0)
        registry.histogram("a-b").record(3.0)
        text = render_openmetrics(registry)
        # One TYPE line (first kind wins), every sample present.
        assert text.count("# TYPE a_b") == 1
        assert "# TYPE a_b gauge" in text
        assert "a_b_count 1" in text
        assert "a_b 1" in text
        assert "a_b 2" in text

    def test_json_snapshot_includes_series(self, env):
        registry = MetricsRegistry()
        registry.gauge("c", {"k": "v"}).set(2)
        scraper = MetricsScraper(env, registry, interval_s=1.0)
        scraper.scrape_once()
        doc = json.loads(metrics_json(registry, scraper=scraper))
        assert doc["instruments"]["gauges"][0]["labels"] == {"k": "v"}
        series = doc["scrape"]["series"][0]
        assert series["series_id"] == "c{k=v}"
        assert series["points"] == [[0.0, 2.0]]


# -- SLO evaluation -----------------------------------------------------------


def _evaluator(env, **config):
    monitoring = MonitoringSystem(env)
    monitoring.class_changed("C", object())  # deployed: observations are kept
    events = EventLog(env, enabled=True)
    evaluator = SloEvaluator(
        env,
        monitoring,
        events=events,
        config=SloConfig(
            windows=(BurnWindow(long_s=10.0, short_s=2.0, burn_rate=2.0, severity="page"),),
            **config,
        ),
    )
    return evaluator, monitoring, events


def _runtime(saturated=False, **qos):
    """A deployed class as the NFR table reads it: declared QoS and one
    single-slot service, busy (``saturated``) or idle."""
    svc = SimpleNamespace(
        replicas=1,
        definition=SimpleNamespace(provision=SimpleNamespace(concurrency=1)),
        total_in_flight=lambda: int(saturated),
    )
    nfr = NonFunctionalRequirements(qos=QosRequirement(**qos))
    return SimpleNamespace(resolved=SimpleNamespace(nfr=nfr), services={"work": svc}, enforcers={})


class TestSloEvaluator:
    def test_availability_burn_fires_and_resolves(self, env):
        evaluator, monitoring, events = _evaluator(env)
        evaluator.watch_class("C", _runtime(availability=0.9))
        obs = monitoring.for_class("C")
        for i in range(10):
            obs.record_invocation(0.01, ok=i % 2 == 0)  # 50% bad vs 10% budget
        evaluator.evaluate(now=1.0)
        assert [a.slo for a in evaluator.firing()] == ["availability"]
        assert len(events.events("slo.alert")) == 1
        for _ in range(80):
            obs.record_invocation(0.01, ok=True)
        evaluator.evaluate(now=20.0)
        assert evaluator.firing() == []
        assert len(events.events("slo.resolve")) == 1
        alert = evaluator.alerts[0]
        assert (alert.fired_at, alert.resolved_at) == (1.0, 20.0)

    def test_min_requests_guard(self, env):
        evaluator, monitoring, _events = _evaluator(env, min_requests=5)
        evaluator.watch_class("C", _runtime(availability=0.9))
        obs = monitoring.for_class("C")
        obs.record_invocation(0.01, ok=False)
        obs.record_invocation(0.01, ok=False)
        evaluator.evaluate(now=1.0)
        assert evaluator.firing() == []

    def test_latency_objective_counts_slow_requests(self, env):
        evaluator, monitoring, _events = _evaluator(env)
        evaluator.watch_class("C", _runtime(latency_ms=50))
        obs = monitoring.for_class("C")
        assert obs.slo_threshold_s == pytest.approx(0.05)
        for _ in range(8):
            obs.record_invocation(0.2, ok=True)  # all slow, all "ok"
        evaluator.evaluate(now=1.0)
        assert obs.slow == 8
        assert [a.slo for a in evaluator.firing()] == ["latency_p95"]

    def test_throughput_deficit_fires_when_saturated(self, env):
        evaluator, monitoring, _events = _evaluator(env)
        evaluator.watch_class("C", _runtime(saturated=True, throughput_rps=100))
        for tick in (1.0, 2.0, 3.0):
            evaluator.evaluate(now=tick)
        firing = evaluator.firing()
        assert [a.slo for a in firing] == ["throughput"]
        assert firing[0].severity == "ticket"

    def test_throughput_quiet_when_not_saturated(self, env):
        evaluator, _monitoring, _events = _evaluator(env)
        evaluator.watch_class("C", _runtime(saturated=False, throughput_rps=100))
        for tick in (1.0, 2.0, 3.0):
            evaluator.evaluate(now=tick)
        assert evaluator.firing() == []

    def test_rpo_point_alert(self, env):
        class FakePolicy:
            enabled = True
            rpo_budget_s = 0.1

        class FakeTracker:
            recoveries = 1
            last_recovery = {"rpo_s": 0.5, "rto_s": 0.7, "lost_writes": 3, "node": "vm-0"}

        class FakeDurability(Plane):
            _policies = {"C": FakePolicy()}
            _trackers = {"C": FakeTracker()}
            verdicts = DurabilityPlane.verdicts

        evaluator, _monitoring, events = _evaluator(env)
        evaluator.planes = {"durability": FakeDurability()}
        evaluator.watch_class("C", _runtime(availability=0.9))
        evaluator.evaluate(now=1.0)
        rpo_alerts = [a for a in evaluator.alerts if a.slo == "durability_rpo"]
        assert len(rpo_alerts) == 1
        assert rpo_alerts[0].fired_at == rpo_alerts[0].resolved_at == 1.0
        # Already-judged recoveries are not re-alerted.
        evaluator.evaluate(now=2.0)
        assert len([a for a in evaluator.alerts if a.slo == "durability_rpo"]) == 1
        assert len(events.events("slo.alert")) == 1

    def test_watch_class_is_idempotent(self, env):
        evaluator, _monitoring, _events = _evaluator(env)
        runtime = _runtime(availability=0.9)
        evaluator.watch_class("C", runtime)
        evaluator.watch_class("C", runtime)
        assert len(evaluator._objectives) == 1

    def test_report_shape(self, env):
        evaluator, monitoring, _events = _evaluator(env)
        evaluator.watch_class("C", _runtime(availability=0.9, throughput_rps=50))
        monitoring.for_class("C").record_invocation(0.01, ok=True)
        evaluator.evaluate(now=1.0)
        report = evaluator.report()
        assert report["evaluations"] == 1
        slos = {(row["cls"], row["slo"]) for row in report["objectives"]}
        assert slos == {("C", "availability"), ("C", "throughput")}
        assert report["alerts"] == [] and report["firing"] == []

    def test_burn_window_validation(self):
        with pytest.raises(ValidationError):
            BurnWindow(long_s=5.0, short_s=5.0, burn_rate=2.0, severity="page")
        with pytest.raises(ValidationError):
            BurnWindow(long_s=10.0, short_s=1.0, burn_rate=1.0, severity="page")
        with pytest.raises(ValidationError):
            SloConfig(windows=())


# -- kernel profiling ---------------------------------------------------------


class TestKernelProfiling:
    def test_off_by_default(self, env):
        assert env.profile is None

    def test_records_dispatches_by_event_type(self, env):
        profile = env.enable_profiling()
        assert env.enable_profiling() is profile  # idempotent

        def proc(env):
            yield env.timeout(1.0)
            yield env.timeout(2.0)

        env.process(proc(env))
        env.run()
        assert profile.total_dispatches >= 2
        assert profile.total_seconds >= 0
        stats = profile.stats()
        assert "Timeout" in stats
        assert stats["Timeout"]["count"] >= 2

    def test_stats_are_series_labelled_by_event_type(self, env):
        profile = env.enable_profiling()

        def proc(env):
            yield env.timeout(1.0)

        env.process(proc(env))
        env.run()
        series = {
            (name, labels["name"]): value
            for name, labels, value in numbers({"dispatches": profile.stats()}, "kernel")
        }
        assert series[("kernel.dispatches.count", "Timeout")] >= 1
        assert ("kernel.dispatches.seconds", "Timeout") in series

    def test_the_dispatch_total_needs_no_profile(self, env):
        """``dispatched`` is what a profile started with the kernel
        counts, read off the kernel's own heap bookkeeping."""
        profile = env.enable_profiling()

        def proc(env, delays):
            for delay in delays:
                yield env.timeout(delay)
            return len(delays)

        children = [env.process(proc(env, [0.5 * n, 1.0, 0.0][: n + 1])) for n in range(3)]
        env.process(proc(env, [2.0]))
        env.run(until=all_of(env, children))
        assert env.dispatched == profile.total_dispatches
        env.run()
        assert env.dispatched == profile.total_dispatches


# -- platform integration -----------------------------------------------------


def _workload(platform):
    platform.register_image("img/resize", lambda ctx: {"ok": True}, 0.004)
    platform.register_image("img/change-format", lambda ctx: {"ok": True}, 0.004)
    platform.register_image("img/detect-object", lambda ctx: {"ok": True}, 0.004)
    platform.deploy(LISTING1_YAML)
    obj = platform.new_object("Image")
    for _ in range(10):
        platform.invoke(obj, "resize", {"width": 64})
        platform.advance(0.1)
    return obj


class TestPlatformIntegration:
    def test_metrics_plane_end_to_end(self):
        platform = make_platform(
            events_enabled=True, metrics=MetricsConfig(enabled=True)
        )
        _workload(platform)
        platform.shutdown()
        assert platform.metrics.scraper.scrapes > 0
        text = platform.metrics_exposition()
        assert 'engine_invocations{plane="engine"}' in text
        assert 'classes_invocations_completed{class="Image",plane="classes"}' in text
        assert 'metrics_kernel_dispatched{plane="metrics"}' in text
        assert "kernel_dispatches_count" not in text
        assert platform.env.profile is None  # the plane times no kernel event
        report = platform.observability_report()
        assert "metrics" in report and "slo" in report
        slos = {(r["cls"], r["slo"]) for r in report["slo"]["objectives"]}
        assert ("Image", "throughput") in slos
        doc = json.loads(platform.metrics_report())
        assert doc["scrape"]["scrapes"] == platform.metrics.scraper.scrapes

    def test_a_profile_turned_on_is_exported_by_event_type(self):
        platform = make_platform(metrics=MetricsConfig(enabled=True))
        platform.env.enable_profiling()
        _workload(platform)
        platform.shutdown()
        text = platform.metrics_exposition()
        assert 'kernel_dispatches_count{name="Timeout",plane="kernel"}' in text

    def test_disabled_plane_builds_nothing(self):
        platform = make_platform()
        assert platform.metrics is None
        assert platform.env.profile is None
        assert platform.metrics_exposition() == ""
        assert platform.metrics_report() == "{}"
        assert platform.slo_report() == {}
        report = _and_report(platform)
        assert "metrics" not in report and "slo" not in report

    def test_disabled_plane_is_behavior_neutral(self):
        """Same seed, same workload: the sim executes identically with
        the plane on and off (pull-model — nothing on the hot path)."""
        results = []
        for metrics in (MetricsConfig(), MetricsConfig(enabled=True)):
            platform = make_platform(seed=7, metrics=metrics)
            _workload(platform)
            platform.shutdown()
            obs = platform.monitoring.for_class("Image")
            results.append(
                (
                    platform.now,
                    obs.completed,
                    obs.failed,
                    obs.latency.count,
                    obs.latency.percentile(99),
                )
            )
        assert results[0] == results[1]

    def test_class_series_are_a_copy_of_class_observations(self):
        """``classes.invocations.completed`` / ``…failed`` in the registry
        are what the scrape copies from ``ClassObservations``: one
        observation path, read twice."""
        platform = make_platform(metrics=MetricsConfig(enabled=True))
        obj = _workload(platform)
        platform.invoke("Image~ghost", "resize", {}, raise_on_error=False)
        platform.invoke(obj, "nosuch", {}, raise_on_error=False)
        platform.metrics.scraper.scrape_once()
        registry = platform.metrics.registry
        for cls in platform.crm.runtimes:
            obs = platform.monitoring.for_class(cls)
            labels = {"class": cls, "plane": "classes"}
            completed = registry.gauge("classes.invocations.completed", labels).value
            failed = registry.gauge("classes.invocations.failed", labels).value
            assert (completed, failed) == (obs.completed, obs.failed)
        image = platform.monitoring.for_class("Image")
        assert image.completed > 0 and image.failed == 2

    def test_a_snapshot_observes_no_class(self):
        """A deployed class with no invocation reads its zero row and is
        not added to the classes the shedder walks."""
        platform = make_platform()
        platform.register_image("t/fn", lambda ctx: {}, 0.001)
        platform.deploy(LATENCY_YAML.format(latency=50))
        assert platform.snapshot()["classes.invocations.completed{class=Fast}"] == 0
        assert platform.monitoring.observed_classes == ()
        platform.shutdown()

    def test_an_undeployed_class_leaves_no_series(self):
        """Two classes, one undeployed: after the next scrape none of its
        series is left in the registry, the scraper or the snapshot."""
        platform = make_platform(metrics=MetricsConfig(enabled=True))
        obj = _workload(platform)
        platform.register_image("t/fn", lambda ctx: {}, 0.001)
        platform.deploy(LATENCY_YAML.format(latency=50))
        fast = platform.new_object("Fast")
        platform.invoke(fast, "work", {})
        platform.advance(1.0)
        registry, scraper = platform.metrics.registry, platform.metrics.scraper

        def held(cls):
            pair = ("class", cls)
            return (
                [g for g in registry.gauges() if pair in g.labels]
                + [h for h in registry.histograms() if pair in h.labels],
                [s for s in scraper.all_series() if pair in s.labels],
                [key for key in platform.snapshot() if f"class={cls}" in key],
            )

        assert all(held("Fast")) and all(held("Image"))
        platform.crm.undeploy_class("Fast")
        platform.invoke(obj, "resize", {"width": 1})
        scraper.scrape_once()
        assert held("Fast") == ([], [], [])
        assert all(held("Image"))
        platform.shutdown()

    def test_update_recompiles_objectives(self):
        platform = make_platform(metrics=MetricsConfig(enabled=True))
        platform.register_image("t/fn", lambda ctx: {}, 0.001)
        platform.deploy(LATENCY_YAML.format(latency=50))
        platform.advance(1.0)
        obs = platform.monitoring.for_class("Fast")
        assert _latency_target(platform) == 50
        platform.crm.update_class(
            loads_package(LATENCY_YAML.format(latency=5)).resolved_classes()["Fast"]
        )
        platform.advance(1.0)
        assert _latency_target(platform) == 5
        assert obs.slo_threshold_s == pytest.approx(0.005)
        platform.crm.undeploy_class("Fast")
        platform.advance(1.0)
        assert _latency_target(platform) is None
        assert obs.slo_threshold_s is None

    def test_class_watch_runs_only_when_classes_change(self, monkeypatch):
        platform = make_platform(metrics=MetricsConfig(enabled=True))
        platform.register_image("t/fn", lambda ctx: {}, 0.001)
        calls = []
        watch = platform.metrics.slo.watch_class
        monkeypatch.setattr(
            platform.metrics.slo,
            "watch_class",
            lambda cls, *args, **kwargs: calls.append(cls) or watch(cls, *args, **kwargs),
        )
        platform.deploy(LATENCY_YAML.format(latency=50))
        platform.advance(5.0)  # ten scrapes, one deploy
        assert calls == ["Fast"]

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            MetricsConfig(scrape_interval_s=0)
        with pytest.raises(ValidationError):
            MetricsConfig(retention_points=1)


LATENCY_YAML = """
classes:
  - name: Fast
    qos: {{ latency: {latency} }}
    functions:
      - {{ name: work, image: t/fn }}
"""


def _latency_target(platform):
    targets = [
        row["target"]
        for row in platform.slo_report()["objectives"]
        if (row["cls"], row["slo"]) == ("Fast", "latency_p95")
    ]
    return targets[0] if targets else None


def _and_report(platform):
    _workload(platform)
    platform.shutdown()
    return platform.observability_report()


# -- CLI ----------------------------------------------------------------------


@pytest.fixture
def pkg_file(tmp_path):
    path = tmp_path / "pkg.yml"
    path.write_text(LISTING1_YAML)
    return str(path)


class TestCliCommands:
    def test_metrics_command_openmetrics(self, pkg_file, capsys):
        from repro.platform.cli import main

        assert (
            main(
                [
                    "metrics", pkg_file, "--auto-handlers", "--new", "Image",
                    "--invoke", "resize", "--rounds", "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "# TYPE gateway_requests gauge" in out
        assert out.rstrip().endswith("# EOF")

    def test_metrics_command_json(self, pkg_file, capsys):
        from repro.platform.cli import main

        assert (
            main(
                [
                    "metrics", pkg_file, "--auto-handlers", "--new", "Image",
                    "--invoke", "resize", "--rounds", "5", "--json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert "instruments" in doc and "scrape" in doc

    def test_slo_command(self, pkg_file, capsys):
        from repro.platform.cli import main

        assert (
            main(
                [
                    "slo", pkg_file, "--auto-handlers", "--new", "Image",
                    "--invoke", "resize", "--rounds", "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "objectives" in out

    def test_slo_command_json_under_chaos(self, pkg_file, capsys):
        from repro.platform.cli import main

        assert (
            main(
                [
                    "slo", pkg_file, "--auto-handlers", "--new", "Image",
                    "--invoke", "resize", "--rounds", "10",
                    "--chaos", "node-crash", "--json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert {"evaluations", "objectives", "alerts", "firing"} <= set(doc)
