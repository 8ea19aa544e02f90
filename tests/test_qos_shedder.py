"""Brownout-trigger and observability tests for the overload controller."""

from repro.monitoring.collector import MonitoringSystem
from repro.monitoring.events import EventLog
from repro.qos.fairqueue import WeightedFairQueue
from repro.qos.policy import QosPolicy
from repro.qos.shedder import MIN_BROWNOUT_SAMPLES, OverloadController


def feed_latencies(monitoring, cls, latency_s, count):
    monitoring.class_changed(cls, object())  # deployed: observations are kept
    obs = monitoring.for_class(cls)
    for _ in range(count):
        obs.record_invocation(latency_s, ok=True)


class TestBrownout:
    def make(self, env, monitoring, policies, queue, **kwargs):
        return OverloadController(
            env,
            [queue],
            policy_for=lambda cls: policies[cls],
            monitoring=monitoring,
            **kwargs,
        )

    def test_p95_over_target_trips_shed_below_depth_watermark(self, env):
        monitoring = MonitoringSystem(env)
        queue = WeightedFairQueue(env)
        policies = {
            "Hot": QosPolicy(cls="Hot", tier=8, deadline_ms=50),
            "Noisy": QosPolicy(cls="Noisy", tier=1),
        }
        controller = self.make(
            env, monitoring, policies, queue, queue_depth_high=1000, target_fraction=0.01
        )
        feed_latencies(monitoring, "Hot", 0.2, MIN_BROWNOUT_SAMPLES)  # 200 ms >> 50
        for i in range(100):
            queue.push("Noisy", i)
        assert controller._brownout_classes() == ["Hot"]
        assert controller.check() > 0
        assert queue.depth("Noisy") <= 10

    def test_too_few_samples_do_not_trip(self, env):
        monitoring = MonitoringSystem(env)
        queue = WeightedFairQueue(env)
        policies = {"Hot": QosPolicy(cls="Hot", deadline_ms=50)}
        controller = self.make(env, monitoring, policies, queue)
        feed_latencies(monitoring, "Hot", 0.2, MIN_BROWNOUT_SAMPLES - 1)
        assert controller._brownout_classes() == []

    def test_meeting_target_does_not_trip(self, env):
        monitoring = MonitoringSystem(env)
        queue = WeightedFairQueue(env)
        policies = {"Hot": QosPolicy(cls="Hot", deadline_ms=50)}
        controller = self.make(env, monitoring, policies, queue)
        feed_latencies(monitoring, "Hot", 0.01, MIN_BROWNOUT_SAMPLES * 2)
        assert controller._brownout_classes() == []

    def test_no_latency_declaration_never_trips(self, env):
        monitoring = MonitoringSystem(env)
        queue = WeightedFairQueue(env)
        policies = {"Batch": QosPolicy(cls="Batch")}
        controller = self.make(env, monitoring, policies, queue)
        feed_latencies(monitoring, "Batch", 5.0, MIN_BROWNOUT_SAMPLES * 2)
        assert controller._brownout_classes() == []

    def test_brownout_with_empty_queue_is_noop(self, env):
        monitoring = MonitoringSystem(env)
        queue = WeightedFairQueue(env)
        policies = {"Hot": QosPolicy(cls="Hot", deadline_ms=50)}
        controller = self.make(env, monitoring, policies, queue)
        feed_latencies(monitoring, "Hot", 0.2, MIN_BROWNOUT_SAMPLES)
        assert controller.check() == 0


class TestShedObservability:
    def test_shed_emits_event_not_span(self, env):
        events = EventLog(env, enabled=True)
        queue = WeightedFairQueue(env)
        policies = {"A": QosPolicy(cls="A", tier=1)}
        controller = OverloadController(
            env,
            [queue],
            policy_for=lambda cls: policies[cls],
            events=events,
            queue_depth_high=2,
            target_fraction=0.5,
        )
        for i in range(10):
            queue.push("A", i)
        shed = controller.check()
        assert shed == 9
        recorded = events.events("qos.shed")
        assert len(recorded) == 1
        assert recorded[0].fields["cls"] == "A"
        assert recorded[0].fields["count"] == 9
        # A shed is narrated once, in the event log: the controller
        # holds no tracer to repeat it as a span.
        assert not hasattr(controller, "tracer")

    def test_stats_shape(self, env):
        queue = WeightedFairQueue(env)
        policies = {"A": QosPolicy(cls="A", tier=1)}
        controller = OverloadController(
            env,
            [queue],
            policy_for=lambda cls: policies[cls],
            queue_depth_high=2,
            target_fraction=0.0,
        )
        for i in range(4):
            queue.push("A", i)
        controller.check()
        stats = controller.stats()
        assert stats["passes"] == 1
        assert stats["shed_total"] == 4
        assert stats["shed_by_class"] == [{"class": "A", "shed": 4}]
        assert stats["queue_depth"] == 0
