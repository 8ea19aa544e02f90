"""Unit tests for the weighted-fair queue and the overload controller."""

import pytest

from repro.qos.fairqueue import WeightedFairQueue
from repro.qos.policy import QosPolicy
from repro.qos.shedder import OverloadController


def serve(queue, count):
    """Serve ``count`` items (queue is non-empty)."""
    return [queue.pop() for _ in range(count)]


class TestWeightedFairQueue:
    def test_fifo_within_single_class(self, env):
        queue = WeightedFairQueue(env)
        for i in range(5):
            queue.push("A", i)
        assert [item.value for item in serve(queue, 5)] == [0, 1, 2, 3, 4]

    def test_drr_serves_proportionally_to_weight(self, env):
        queue = WeightedFairQueue(env)
        queue.set_weight("Hot", 8)
        queue.set_weight("Cold", 1)
        for i in range(40):
            queue.push("Hot", ("hot", i))
            queue.push("Cold", ("cold", i))
        first = [item.cls for item in serve(queue, 18)]
        # One full rotation serves 8 Hot + 1 Cold; two rotations = 16:2.
        assert first.count("Hot") == 16
        assert first.count("Cold") == 2

    def test_edf_orders_by_deadline_within_class(self, env):
        queue = WeightedFairQueue(env)
        queue.push("A", "lax", deadline_s=9.0)
        queue.push("A", "urgent", deadline_s=1.0)
        queue.push("A", "middle", deadline_s=5.0)
        values = [item.value for item in serve(queue, 3)]
        assert values == ["urgent", "middle", "lax"]

    def test_no_deadline_sorts_after_deadlines(self, env):
        queue = WeightedFairQueue(env)
        queue.push("A", "whenever")
        queue.push("A", "urgent", deadline_s=1.0)
        values = [item.value for item in serve(queue, 2)]
        assert values == ["urgent", "whenever"]

    def test_pop_on_empty_queue_is_none(self, env):
        queue = WeightedFairQueue(env)
        assert queue.pop() is None
        queue.push("A", "data")
        assert queue.pop().value == "data"
        assert queue.pop() is None
        assert queue.stats()["served"] == 1

    def test_drain_hands_back_service_order_without_serving(self, env):
        """What a dying worker owes its peers: everything, in the order
        pop() would have produced it (DRR across flows, EDF within)."""

        def fill(queue):
            queue.set_weight("Hot", 2)
            queue.set_weight("Cold", 1)
            for i in range(4):
                queue.push("Cold", ("cold", i))
                queue.push("Hot", ("hot", i), deadline_s=10.0 - i)

        served, drained = WeightedFairQueue(env), WeightedFairQueue(env)
        fill(served)
        fill(drained)
        expected = [item.value for item in serve(served, 8)]
        assert [item.value for item in drained.drain()] == expected
        assert [v for v in expected if v[0] == "cold"] == [("cold", i) for i in range(4)]
        assert drained.depth() == 0
        assert drained.stats()["served"] == 0
        assert drained.pop() is None

    def test_queue_delay_measured_from_enqueue(self, env):
        queue = WeightedFairQueue(env)
        item = queue.push("A", 1)
        env.run(until=3.0)
        assert item.queue_delay(env.now) == pytest.approx(3.0)

    def test_shed_removes_newest_first_and_counts(self, env):
        queue = WeightedFairQueue(env)
        for i in range(5):
            queue.push("A", i)
        victims = queue.shed("A", 2)
        assert sorted(item.value for item in victims) == [3, 4]
        assert queue.depth("A") == 3
        assert queue.shed_count == {"A": 2}
        survivors = [item.value for item in serve(queue, 3)]
        assert survivors == [0, 1, 2]

    def test_shed_unknown_class_is_noop(self, env):
        queue = WeightedFairQueue(env)
        assert queue.shed("ghost", 3) == []

    def test_weight_validation(self, env):
        with pytest.raises(ValueError):
            WeightedFairQueue(env).set_weight("A", 0)

    def test_stats(self, env):
        queue = WeightedFairQueue(env)
        queue.push("A", 1)
        queue.push("B", 2)
        serve(queue, 1)
        stats = queue.stats()
        assert stats["pushed"] == 2
        assert stats["served"] == 1
        assert stats["depth"] == 1


def make_controller(env, queue, policies, **kwargs):
    return OverloadController(
        env,
        [queue],
        policy_for=lambda cls: policies[cls],
        **kwargs,
    )


class TestOverloadController:
    def test_no_shed_below_watermark(self, env):
        queue = WeightedFairQueue(env)
        policies = {"A": QosPolicy(cls="A")}
        controller = make_controller(env, queue, policies, queue_depth_high=10)
        for i in range(5):
            queue.push("A", i)
        assert controller.check() == 0

    def test_sheds_lowest_tier_down_to_target(self, env):
        queue = WeightedFairQueue(env)
        policies = {
            "Hot": QosPolicy(cls="Hot", tier=8, weight=8),
            "Noisy": QosPolicy(cls="Noisy", tier=1, weight=1),
        }
        shed = []
        controller = make_controller(
            env,
            queue,
            policies,
            on_shed=shed.append,
            queue_depth_high=10,
            target_fraction=0.5,
        )
        for i in range(4):
            queue.push("Hot", i)
        for i in range(16):
            queue.push("Noisy", i)
        count = controller.check()
        assert count == 15  # 20 queued -> target depth 5
        assert all(item.cls == "Noisy" for item in shed)
        assert queue.depth("Hot") == 4

    def test_highest_tier_protected_when_mixed(self, env):
        queue = WeightedFairQueue(env)
        policies = {
            "Hot": QosPolicy(cls="Hot", tier=8),
            "Noisy": QosPolicy(cls="Noisy", tier=1),
        }
        controller = make_controller(
            env, queue, policies, queue_depth_high=4, target_fraction=0.0
        )
        for i in range(20):
            queue.push("Hot", i)
        queue.push("Noisy", 0)
        controller.check()
        # Only the single Noisy item may be shed; Hot survives intact
        # even though depth stays above target.
        assert queue.depth("Hot") == 20
        assert queue.depth("Noisy") == 0

    def test_single_tier_can_be_shed(self, env):
        queue = WeightedFairQueue(env)
        policies = {"Only": QosPolicy(cls="Only", tier=2)}
        controller = make_controller(
            env, queue, policies, queue_depth_high=4, target_fraction=0.5
        )
        for i in range(10):
            queue.push("Only", i)
        assert controller.check() == 8
        assert queue.depth("Only") == 2

    def test_periodic_process_sheds_while_running(self, env):
        queue = WeightedFairQueue(env)
        policies = {"A": QosPolicy(cls="A", tier=1)}
        controller = make_controller(
            env, queue, policies, queue_depth_high=4, check_interval_s=0.5
        )
        for i in range(10):
            queue.push("A", i)
        controller.start()
        env.run(until=1.0)
        assert controller.shed_total > 0
        controller.stop()
        shed_before = controller.shed_total
        for i in range(10):
            queue.push("A", i)
        env.run(until=5.0)
        assert controller.shed_total == shed_before

    def test_validation(self, env):
        queue = WeightedFairQueue(env)
        with pytest.raises(ValueError):
            make_controller(env, queue, {}, queue_depth_high=0)
        with pytest.raises(ValueError):
            make_controller(env, queue, {}, target_fraction=1.0)
        with pytest.raises(ValueError):
            make_controller(env, queue, {}, check_interval_s=0)
