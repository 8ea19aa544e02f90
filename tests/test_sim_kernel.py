"""Unit tests for the discrete-event kernel."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.monitoring.plane import MetricsConfig
from repro.sim.kernel import Environment, all_of, any_of
from repro.sim.resources import Container, Gate, RateLimiter, Resource

from tests.helpers import listing1_platform


def run_process(env, generator):
    return env.run(until=env.process(generator))


class TestTimeAdvance:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_timeout_advances_clock(self, env):
        def proc(env):
            yield env.timeout(2.5)
            return env.now

        assert run_process(env, proc(env)) == 2.5

    def test_sequential_timeouts_accumulate(self, env):
        def proc(env):
            yield env.timeout(1.0)
            yield env.timeout(0.5)
            return env.now

        assert run_process(env, proc(env)) == 1.5

    def test_zero_timeout_allowed(self, env):
        def proc(env):
            yield env.timeout(0)
            return env.now

        assert run_process(env, proc(env)) == 0.0

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_sleep_is_timeout_alias(self, env):
        def proc(env):
            yield env.sleep(3.0)
            return env.now

        assert run_process(env, proc(env)) == 3.0

    def test_run_until_time_sets_now(self, env):
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_past_raises(self, env):
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)


class TestEvents:
    def test_event_succeed_delivers_value(self, env):
        ev = env.event()

        def trigger(env):
            yield env.timeout(1.0)
            ev.succeed("payload")

        def waiter(env):
            value = yield ev
            return value, env.now

        env.process(trigger(env))
        assert run_process(env, waiter(env)) == ("payload", 1.0)

    def test_event_double_trigger_rejected(self, env):
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self, env):
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")

    def test_failed_event_raises_in_waiter(self, env):
        ev = env.event()

        def trigger(env):
            yield env.timeout(0.1)
            ev.fail(ValueError("boom"))

        def waiter(env):
            try:
                yield ev
            except ValueError as exc:
                return str(exc)
            return "no error"

        env.process(trigger(env))
        assert run_process(env, waiter(env)) == "boom"

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_waiting_on_processed_event_returns_immediately(self, env):
        ev = env.event()
        ev.succeed(7)
        env.run()  # process the event

        def late(env):
            value = yield ev
            return value

        assert run_process(env, late(env)) == 7


class TestProcesses:
    def test_process_return_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return 42

        assert run_process(env, proc(env)) == 42

    def test_process_requires_generator(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_process_waits_on_process(self, env):
        def inner(env):
            yield env.timeout(2)
            return "inner-done"

        def outer(env):
            result = yield env.process(inner(env))
            return result, env.now

        assert run_process(env, outer(env)) == ("inner-done", 2.0)

    def test_yielding_non_event_fails_process(self, env):
        def bad(env):
            yield 42

        with pytest.raises(SimulationError):
            env.run(until=env.process(bad(env)))

    def test_unhandled_crash_surfaces_at_run(self, env):
        def crash(env):
            yield env.timeout(1)
            raise RuntimeError("unexpected")

        env.process(crash(env))
        with pytest.raises(SimulationError, match="unhandled failure"):
            env.run()

    def test_watched_crash_propagates_to_waiter(self, env):
        def crash(env):
            yield env.timeout(1)
            raise RuntimeError("boom")

        def waiter(env):
            try:
                yield env.process(crash(env))
            except RuntimeError:
                return "caught"
            return "missed"

        assert run_process(env, waiter(env)) == "caught"

    def test_is_alive(self, env):
        def proc(env):
            yield env.timeout(5)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_same_time_events_fire_in_fifo_order(self, env):
        order = []

        def proc(env, tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(env, tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_deadlock_detected_for_run_until_event(self, env):
        never = env.event()
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(until=never)


class TestConditions:
    def test_all_of_waits_for_slowest(self, env):
        def worker(env, delay):
            yield env.timeout(delay)
            return delay

        def waiter(env):
            procs = [env.process(worker(env, d)) for d in (3, 1, 2)]
            values = yield all_of(env, procs)
            return values, env.now

        values, now = run_process(env, waiter(env))
        assert values == [3, 1, 2]
        assert now == 3.0

    def test_all_of_empty_fires_immediately(self, env):
        def waiter(env):
            values = yield all_of(env, [])
            return values

        assert run_process(env, waiter(env)) == []

    def test_all_of_fails_if_any_child_fails(self, env):
        def ok(env):
            yield env.timeout(1)

        def bad(env):
            yield env.timeout(0.5)
            raise ValueError("child failed")

        def waiter(env):
            try:
                yield all_of(env, [env.process(ok(env)), env.process(bad(env))])
            except ValueError:
                return "caught"
            return "missed"

        assert run_process(env, waiter(env)) == "caught"

    def test_any_of_returns_first(self, env):
        def worker(env, delay, tag):
            yield env.timeout(delay)
            return tag

        def waiter(env):
            procs = [
                env.process(worker(env, 2, "slow")),
                env.process(worker(env, 1, "fast")),
            ]
            index, value = yield any_of(env, procs)
            return index, value, env.now

        assert run_process(env, waiter(env)) == (1, "fast", 1.0)

    def test_any_of_empty_rejected(self, env):
        with pytest.raises(SimulationError):
            any_of(env, [])


class TestStep:
    def test_step_empty_schedule_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_peek_reports_next_event_time(self, env):
        env.timeout(4.0)
        assert env.peek() == 4.0

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")


def _seeded_graph(env, seed):
    """Workers that sleep, queue on a shared resource, fan out to
    children and race them — every event type the kernel dispatches."""
    rng = random.Random(seed)
    resource = Resource(env, 2)
    results = []

    def child(tag, delay):
        yield env.timeout(delay)
        return tag

    def worker(tag):
        for round_ in range(rng.randint(2, 5)):
            yield env.timeout(rng.choice([0.0, 0.25, 1.0]))
            slot = resource.request()
            yield slot
            yield env.timeout(rng.random())
            resource.release()
            children = [
                env.process(child((tag, round_, k), rng.random())) for k in range(rng.randint(1, 3))
            ]
            combine = all_of if rng.random() < 0.5 else any_of
            results.append((env.now, tag, (yield combine(env, children))))
        return tag

    return [env.process(worker(tag)) for tag in range(6)], results


def _single_step(env):
    while env.peek() < float("inf"):
        env.step()


class TestRunAndStepAccountIdentically:
    """``run()`` and ``step()`` drive one loop: the same graph driven
    either way dispatches the same events, profiled or not."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_counts_clock_and_results(self, seed):
        outcomes = []
        for drive in (Environment.run, _single_step):
            env = Environment()
            profile = env.enable_profiling()
            workers, results = _seeded_graph(env, seed)
            drive(env)
            assert set(profile.dispatch_seconds) == set(profile.dispatch_count)
            assert all(seconds >= 0.0 for seconds in profile.dispatch_seconds.values())
            assert {name: row["count"] for name, row in profile.stats().items()} == (
                profile.dispatch_count
            )
            outcomes.append(
                (profile.dispatch_count, env.now, [w.value for w in workers], results)
            )
        assert outcomes[0] == outcomes[1]
        assert set(outcomes[0][0]) == {"Event", "Timeout", "Process", "AllOf", "AnyOf"}

    def test_profile_does_not_change_the_run(self):
        outcomes = []
        for profiled in (False, True):
            env = Environment()
            if profiled:
                env.enable_profiling()
            workers, results = _seeded_graph(env, 3)
            env.run()
            outcomes.append((env.now, [w.value for w in workers], results))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("profiled", [False, True])
    def test_crash_surfaces_the_same_either_way(self, profiled):
        def crasher(env):
            yield env.timeout(1.0)
            raise ValueError("boom")

        errors = []
        for drive in (Environment.run, _single_step):
            env = Environment()
            if profiled:
                env.enable_profiling()
            env.process(crasher(env))
            env.timeout(5.0)
            with pytest.raises(SimulationError, match="unhandled failure") as caught:
                drive(env)
            assert isinstance(caught.value.__cause__, ValueError)
            counts = dict(env.profile.dispatch_count) if profiled else None
            errors.append((env.now, env.peek(), counts))
        assert errors[0] == errors[1]


class TestMetricsPlaneProfile:
    def test_plane_dispatches_what_a_hand_enabled_profile_sees(self):
        """The metrics plane turns the kernel profile on; the profile
        observes and never perturbs, so the plane's run differs from the
        same script profiled by hand only by the plane's own scraper —
        its start and one timeout per scrape."""

        def script(**config):
            platform = listing1_platform(seed=11, **config)
            profile = platform.env.enable_profiling()
            image = platform.new_object("Image", {"width": 640})
            for width in range(12):
                assert platform.invoke(image, "resize", {"width": 100 + width}).ok
            platform.advance(2.0)
            return platform, profile

        by_hand, hand_profile = script()
        plane, plane_profile = script(metrics=MetricsConfig(enabled=True))
        assert plane.env.profile is plane_profile  # the one the plane installed
        assert plane.now == by_hand.now
        scrapes = plane.metrics.scraper.scrapes
        assert scrapes >= 1
        expected = dict(hand_profile.dispatch_count)
        expected["Event"] += 1
        expected["Timeout"] += scrapes
        assert plane_profile.dispatch_count == expected
        assert plane_profile.total_dispatches == hand_profile.total_dispatches + 1 + scrapes


class TestSlottedEvents:
    def test_kernel_events_carry_no_dict(self, env):
        def nothing(env):
            yield env.timeout(0)

        pending = env.event()
        events = [
            pending,
            env.timeout(1.0),
            env.process(nothing(env)),
            all_of(env, [pending]),
            any_of(env, [pending]),
            Resource(env, 1).request(),
            Container(env, 1.0).get(1.0),
            RateLimiter(env, 1.0).acquire(),
            Gate(env).wait(),
        ]
        for event in events:
            assert not hasattr(event, "__dict__"), type(event).__name__


class Boom(Exception):
    pass


# A random generator tree: each node runs its steps in order — sleep, run
# a child, or raise — and returns its value; a node either catches a
# child's failure or lets it through.
def _nodes(children):
    step = st.one_of(
        st.tuples(st.just("sleep"), st.sampled_from([0.0, 0.25, 1.0, 2.5])),
        st.tuples(st.just("raise"), st.none()),
        st.tuples(st.just("child"), children),
    )
    return st.fixed_dictionaries(
        {"steps": st.lists(step, max_size=4), "value": st.integers(0, 9), "catches": st.booleans()}
    )


_LEAF = _nodes(st.nothing())
_TREES = st.recursive(_LEAF, _nodes, max_leaves=10)


def _run_tree(env, node, through, log, path=()):
    """Run ``node``; children are awaited as processes, or — with
    ``through`` — delegated to with ``yield from``."""
    for index, (kind, arg) in enumerate(node["steps"]):
        if kind == "sleep":
            yield env.timeout(arg)
        elif kind == "raise":
            log.append((env.now, path, index, "raise"))
            raise Boom(path)
        else:
            child = _run_tree(env, arg, through, log, path + (index,))
            try:
                if through:
                    value = yield from child
                else:
                    value = yield env.process(child)
            except Boom:
                log.append((env.now, path, index, "caught"))
                if not node["catches"]:
                    raise
            else:
                log.append((env.now, path, index, value))
    return node["value"]


def _outcomes(trees, through):
    """Run the trees side by side in one environment; per tree, what it
    returned or raised, when it finished, and what it saw at each step."""
    env = Environment()
    logs = [[] for _ in trees]
    finished = []

    def root(tree, log):
        try:
            outcome = yield from _run_tree(env, tree, through, log)
        except Boom as exc:
            outcome = type(exc).__name__
        finished.append(env.now)
        return outcome

    roots = [env.process(root(tree, log)) for tree, log in zip(trees, logs)]
    env.run()
    return [(proc.value, log) for proc, log in zip(roots, logs)], sorted(finished)


class TestCallThrough:
    """``x = yield env.process(g())`` and ``x = yield from g()`` are the
    same computation: same simulated times, same values, same failures
    at the same yield points."""

    @given(st.lists(_TREES, min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_delegating_equals_spawning(self, trees):
        assert _outcomes(trees, through=True) == _outcomes(trees, through=False)
