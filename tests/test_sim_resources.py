"""Unit tests for simulation queueing primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim.resources import Container, Gate, RateLimiter, Resource


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(SimulationError):
            Resource(env, 0)

    def test_grants_up_to_capacity_immediately(self, env):
        res = Resource(env, 2)
        grants = []

        def worker(env, tag):
            yield res.request()
            grants.append((tag, env.now))
            yield env.timeout(1)
            res.release()

        for tag in range(3):
            env.process(worker(env, tag))
        env.run()
        assert grants == [(0, 0.0), (1, 0.0), (2, 1.0)]

    def test_fifo_order(self, env):
        res = Resource(env, 1)
        order = []

        def worker(env, tag):
            yield res.request()
            order.append(tag)
            yield env.timeout(1)
            res.release()

        for tag in range(4):
            env.process(worker(env, tag))
        env.run()
        assert order == [0, 1, 2, 3]

    def test_release_without_request_raises(self, env):
        res = Resource(env, 1)
        with pytest.raises(SimulationError):
            res.release()

    def test_queue_length(self, env):
        res = Resource(env, 1)

        def holder(env):
            yield res.request()
            yield env.timeout(10)
            res.release()

        def waiter(env):
            yield res.request()
            res.release()

        env.process(holder(env))
        env.process(waiter(env))
        env.run(until=1.0)
        assert res.queue_length == 1
        assert res.in_use == 1

    def test_resize_up_wakes_waiters(self, env):
        res = Resource(env, 1)
        grants = []

        def worker(env, tag):
            yield res.request()
            grants.append((tag, env.now))
            yield env.timeout(5)
            res.release()

        for tag in range(3):
            env.process(worker(env, tag))

        def resize_later(env):
            yield env.timeout(1)
            res.resize(3)

        env.process(resize_later(env))
        env.run()
        assert grants == [(0, 0.0), (1, 1.0), (2, 1.0)]

    def test_resize_down_does_not_evict(self, env):
        res = Resource(env, 2)

        def holder(env):
            yield res.request()
            yield env.timeout(5)
            res.release()

        env.process(holder(env))
        env.process(holder(env))
        env.run(until=1)
        res.resize(1)
        assert res.in_use == 2  # drains as holders release
        env.run()
        assert res.in_use <= res.capacity

    def test_release_after_shrink_retires_slot_not_waiter(self, env):
        # Regression: with waiters queued, release() used to hand the
        # freed slot straight to a waiter even when a resize() shrink
        # had left in_use > capacity — the pool never drained and
        # scale-down silently never took effect under queueing.
        res = Resource(env, 2)
        grants = []

        def worker(env, tag, hold):
            yield res.request()
            grants.append((tag, env.now))
            yield env.timeout(hold)
            res.release()

        def shrink(env):
            yield env.timeout(0.5)
            res.resize(1)

        env.process(worker(env, "h0", 1.0))
        env.process(worker(env, "h1", 2.0))
        env.process(worker(env, "w0", 0.0))
        env.process(worker(env, "w1", 0.0))
        env.process(shrink(env))
        env.run()
        assert grants[:2] == [("h0", 0.0), ("h1", 0.0)]
        # h0's release at t=1 must retire the over-capacity slot, so the
        # waiters are only admitted after h1 releases at t=2 — and then
        # one at a time through the single remaining slot.
        assert grants[2:] == [("w0", 2.0), ("w1", 2.0)]
        assert res.in_use == 0
        assert res.capacity == 1


class TestContainer:
    def test_validation(self, env):
        with pytest.raises(SimulationError):
            Container(env, 0)
        with pytest.raises(SimulationError):
            Container(env, 10, initial=20)

    def test_get_blocks_until_put(self, env):
        box = Container(env, 100, initial=0)
        times = []

        def getter(env):
            yield box.get(30)
            times.append(env.now)

        def putter(env):
            yield env.timeout(2)
            box.put(50)

        env.process(getter(env))
        env.process(putter(env))
        env.run()
        assert times == [2.0]
        assert box.level == 20

    def test_get_more_than_capacity_rejected(self, env):
        box = Container(env, 10)
        with pytest.raises(SimulationError):
            box.get(11)

    def test_put_caps_at_capacity(self, env):
        box = Container(env, 10, initial=5)
        box.put(100)
        assert box.level == 10

    def test_fifo_waiters_no_starvation(self, env):
        box = Container(env, 100, initial=0)
        order = []

        def getter(env, amount, tag):
            yield box.get(amount)
            order.append(tag)

        env.process(getter(env, 60, "big"))
        env.process(getter(env, 10, "small"))

        def feeder(env):
            yield env.timeout(1)
            box.put(30)  # not enough for 'big'; 'small' must still wait (FIFO)
            yield env.timeout(1)
            box.put(40)

        env.process(feeder(env))
        env.run()
        assert order == ["big", "small"]


class TestRateLimiter:
    def test_rate_validation(self, env):
        with pytest.raises(SimulationError):
            RateLimiter(env, 0)

    def test_serial_service_time(self, env):
        limiter = RateLimiter(env, rate=10)

        def work(env):
            for _ in range(5):
                yield limiter.acquire(2)
            return env.now

        # 5 acquisitions x 2 units at 10 units/s = 1.0s
        assert env.run(until=env.process(work(env))) == pytest.approx(1.0)

    def test_backlog_grows_when_oversubscribed(self, env):
        limiter = RateLimiter(env, rate=1)
        for _ in range(10):
            limiter.acquire(1)
        assert limiter.backlog_seconds == pytest.approx(10.0)

    def test_idle_time_not_counted(self, env):
        limiter = RateLimiter(env, rate=10)

        def work(env):
            yield limiter.acquire(1)
            yield env.timeout(5)  # idle gap
            yield limiter.acquire(1)
            return env.now

        assert env.run(until=env.process(work(env))) == pytest.approx(5.2)

    def test_utilization(self, env):
        limiter = RateLimiter(env, rate=10)

        def work(env):
            yield limiter.acquire(10)  # 1s busy

        env.run(until=env.process(work(env)))
        env.run(until=2.0)
        assert limiter.utilization(2.0) == pytest.approx(0.5)

    def test_zero_units_is_free(self, env):
        limiter = RateLimiter(env, rate=1)

        def work(env):
            yield limiter.acquire(0)
            return env.now

        assert env.run(until=env.process(work(env))) == 0.0


class TestGate:
    def test_fire_wakes_all_waiters(self, env):
        gate = Gate(env)
        woken = []

        def waiter(env, tag):
            value = yield gate.wait()
            woken.append((tag, value, env.now))

        for tag in range(3):
            env.process(waiter(env, tag))

        def firer(env):
            yield env.timeout(2)
            count = gate.fire("go")
            assert count == 3

        env.process(firer(env))
        env.run()
        assert woken == [(0, "go", 2.0), (1, "go", 2.0), (2, "go", 2.0)]

    def test_fire_with_no_waiters(self, env):
        gate = Gate(env)
        assert gate.fire() == 0

    def test_waiters_after_fire_wait_for_next(self, env):
        gate = Gate(env)
        gate.fire()
        woken = []

        def waiter(env):
            yield gate.wait()
            woken.append(env.now)

        env.process(waiter(env))
        env.run()
        assert woken == []  # previous fire does not satisfy a new wait
