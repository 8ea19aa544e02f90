"""End-to-end tests of the scheduler plane wired into the platform:
worker pool bring-up, dispatch, drain/crash handling, gateway routes,
reports, chaos determinism, and the off-by-default baseline guarantee."""

from __future__ import annotations

import gc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import FaultPlan, HeartbeatLoss, SlowWorker, WorkerCrash
from repro.errors import ValidationError
from repro.monitoring.plane import MetricsConfig
from repro.scheduler import SchedulerConfig, WorkerState
from repro.scheduler.worker import SimWorker

from tests.conformance.dsl import (
    Crash,
    Drain,
    LoseHeartbeats,
    Scenario,
    Submit,
    check_exactly_once,
    run_scenario,
)
from tests.helpers import make_platform

SCHED_YAML = """
name: sched-app
classes:
  - name: Task
    keySpecs: [{name: n, type: INT, default: 0}]
    functions:
      - name: bump
        image: s/bump
"""


def _bump(ctx):
    ctx.state["n"] = int(ctx.state.get("n") or 0) + 1
    return {"n": ctx.state["n"]}


def sched_platform(**scheduler_kwargs):
    scheduler_kwargs.setdefault("pool_size", 3)
    scheduler_kwargs.setdefault("heartbeat_interval_s", 0.1)
    scheduler_kwargs.setdefault("dead_after_misses", 4)
    return make_platform(
        SCHED_YAML,
        {"s/bump": (_bump, 0.002)},
        nodes=3,
        seed=9,
        events_enabled=True,
        scheduler=SchedulerConfig(enabled=True, **scheduler_kwargs),
    )


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            SchedulerConfig(enabled=True, pool_size=0)
        with pytest.raises(ValidationError):
            SchedulerConfig(enabled=True, heartbeat_interval_s=0)
        with pytest.raises(ValidationError):
            SchedulerConfig(enabled=True, dead_after_misses=1, degraded_after_misses=2)


class TestPoolLifecycle:
    def test_pool_comes_up_and_serves(self):
        platform = sched_platform()
        plane = platform.scheduler_plane
        obj = platform.new_object("Task", object_id="t-0")
        completions = [platform.invoke_async(obj, "bump") for _ in range(10)]
        platform.advance(2.0)
        assert all(event.value.ok for event in completions)
        audit = plane.ledger.audit()
        assert audit == {
            "accepted": 10,
            "completed": 10,
            "outstanding": 0,
            "requeues": 0,
            "suppressed": 0,
        }
        names = {w["worker"] for w in plane.describe_workers()}
        assert names == {"worker-0", "worker-1", "worker-2"}
        assert all(w["state"] == "READY" for w in plane.describe_workers())
        platform.shutdown()

    def test_workers_run_as_pods_on_cluster_nodes(self):
        platform = sched_platform()
        for worker in platform.scheduler_plane.workers.values():
            pod = platform.cluster.pod(worker.pod.name)
            assert pod is worker.pod
            assert pod.spec.labels["app"] == "oaas-worker"
        platform.shutdown()

    def test_drain_hands_off_and_pool_self_heals(self):
        platform = sched_platform()
        plane = platform.scheduler_plane
        obj = platform.new_object("Task", object_id="t-0")
        for _ in range(20):
            platform.invoke_async(obj, "bump")
        platform.advance(0.5)  # pool up, work in progress
        drained = plane.drain_worker("worker-0")
        platform.advance(3.0)
        audit = plane.ledger.audit()
        assert audit["outstanding"] == 0 and audit["completed"] == 20
        assert drained.state is WorkerState.DEAD
        assert "worker-0" not in plane.workers  # retired: its row is gone
        # Replacement keeps the pool at size.
        assert plane.live_workers == 3
        platform.shutdown()

    def test_crash_requeues_and_completes_everything(self):
        platform = sched_platform(dispatch_overhead_s=0.005)
        plane = platform.scheduler_plane
        obj = platform.new_object("Task", object_id="t-0")
        for _ in range(20):
            platform.invoke_async(obj, "bump")
        platform.advance(0.003)  # land the crash while work is in flight
        victim = next(iter(plane.workers))
        assert plane.crash_worker(victim, reason="test")
        platform.advance(3.0)
        audit = plane.ledger.audit()
        assert audit["outstanding"] == 0 and audit["completed"] == 20
        assert platform.queue.completed == 20
        platform.shutdown()


    def test_retired_workers_leave_no_rows_or_series(self):
        """Crash and replace a worker ten times: the pool's table holds
        the pool, the metrics registry one set of series per worker,
        and the event log and the ``retired`` count keep the record."""
        platform = make_platform(
            SCHED_YAML,
            {"s/bump": (_bump, 0.002)},
            nodes=3,
            seed=9,
            events_enabled=True,
            metrics=MetricsConfig(enabled=True, scrape_interval_s=0.1),
            scheduler=SchedulerConfig(enabled=True, pool_size=3),
        )
        plane = platform.scheduler_plane
        obj = platform.new_object("Task", object_id="t-0")
        platform.advance(0.5)

        def scheduler_series():
            return sum(
                1
                for gauge in platform.metrics.registry.gauges()
                if dict(gauge.labels).get("plane") == "scheduler"
            )

        counts = []
        for _ in range(10):
            victim = min(name for name, w in plane.workers.items() if not w.machine.is_dead)
            assert plane.crash_worker(victim, reason="test")
            platform.invoke_async(obj, "bump")
            platform.advance(0.5)  # the replacement activates and serves
            counts.append(scheduler_series())
        assert len(plane.core.workers) == 3 and plane.live_workers == 3
        assert len(set(counts)) == 1, counts
        assert plane.stats()["retired"] == 10
        assert len(platform.platform_events("scheduler.dead")) == 10
        assert plane.ledger.audit()["outstanding"] == 0
        platform.shutdown()

    def test_retired_ports_are_let_go(self):
        """Ten crash/replace cycles on a pool of three: three ports stay
        reachable, the core counts thirteen registrations and keeps one
        epoch per name."""
        platform = sched_platform()
        plane = platform.scheduler_plane
        obj = platform.new_object("Task", object_id="t-0")
        platform.advance(0.5)
        for _ in range(10):
            assert plane.crash_worker(min(plane.workers), reason="test")
            platform.invoke_async(obj, "bump")
            platform.advance(0.5)
        gc.collect()
        ports = [o for o in gc.get_objects() if type(o) is SimWorker]
        assert sorted(port.name for port in ports) == sorted(plane.workers)
        assert len(ports) == 3
        assert plane.stats()["registrations"] == 13
        assert len(plane.core.epochs) == 13
        platform.shutdown()


class TestGatewayRoutes:
    def test_workers_listing(self):
        platform = sched_platform()
        response = platform.http("GET", "/api/workers")
        assert response.status == 200
        assert response.body["count"] == 3
        assert {w["worker"] for w in response.body["workers"]} == {
            "worker-0",
            "worker-1",
            "worker-2",
        }
        assert "accepted" in response.body["ledger"]
        platform.shutdown()

    def test_drain_route_and_errors(self):
        platform = sched_platform()
        platform.advance(0.5)  # workers READY (draining REGISTERED is illegal)
        response = platform.http("POST", "/api/workers/worker-1/drain")
        assert response.status == 202
        assert response.body["state"] == "DRAINING"
        assert platform.http("POST", "/api/workers/nope/drain").status == 404
        platform.advance(1.0)  # worker-1 finishes draining -> DEAD, row gone
        assert platform.http("POST", "/api/workers/worker-1/drain").status == 404
        platform.shutdown()

    def test_draining_every_worker_still_serves(self):
        """Sim twin of the asyncio front's test: a drained worker is
        replaced like a crashed one, so draining the whole pool through
        the gateway leaves two fresh workers serving."""
        platform = sched_platform(pool_size=2)
        obj = platform.new_object("Task", object_id="t-0")
        platform.advance(0.5)
        for name in ("worker-0", "worker-1"):
            response = platform.http("POST", f"/api/workers/{name}/drain")
            assert (response.status, response.body["state"]) == (202, "DRAINING")
        completion = platform.invoke_async(obj, "bump")
        platform.advance(3.0)  # replacements activate; first-touch cold start
        assert completion.value.ok
        listing = platform.http("GET", "/api/workers").body
        assert {w["worker"]: w["state"] for w in listing["workers"]} == {
            "worker-2": "READY",
            "worker-3": "READY",
        }
        assert listing["ledger"]["outstanding"] == 0
        platform.shutdown()

    def test_routes_404_when_plane_off(self):
        platform = make_platform(SCHED_YAML, {"s/bump": (_bump, 0.002)}, nodes=2)
        for method, path in (
            ("GET", "/api/workers"),
            ("POST", "/api/workers/worker-0/drain"),
        ):
            response = platform.http(method, path)
            assert response.status == 404
            assert response.body["type"] == "NoRouteError"
        platform.shutdown()


class TestReportsAndBaseline:
    def test_reports_and_snapshot_keys(self):
        platform = sched_platform()
        obj = platform.new_object("Task", object_id="t-0")
        for _ in range(5):
            platform.invoke_async(obj, "bump")
        platform.advance(3.0)  # covers the first invocation's cold start
        report = platform.report("scheduler")
        assert report["ledger"]["completed"] == 5
        assert report["live_workers"] == 3
        assert "scheduler" in platform.observability_report()
        keys = set(platform.snapshot())
        assert {"scheduler.ledger.accepted", "scheduler.ledger.completed"} <= keys
        platform.shutdown()

        baseline = make_platform(nodes=2)
        assert not {"scheduler.ledger.accepted"} & set(baseline.snapshot())
        assert baseline.scheduler_plane is None
        baseline.shutdown()

    def test_metrics_plane_scrapes_worker_series(self):
        from repro.monitoring.plane import MetricsConfig

        platform = make_platform(
            SCHED_YAML,
            {"s/bump": (_bump, 0.002)},
            seed=9,
            scheduler=SchedulerConfig(enabled=True, pool_size=2),
            metrics=MetricsConfig(enabled=True),
        )
        obj = platform.new_object("Task", object_id="t-0")
        for _ in range(5):
            platform.invoke_async(obj, "bump")
        platform.advance(3.0)
        platform.shutdown()
        text = platform.metrics_exposition()
        assert 'scheduler_workers_completed{plane="scheduler",worker="worker-0"}' in text
        assert 'scheduler_ledger_accepted{plane="scheduler"}' in text


class TestChaosDeterminism:
    PLAN = FaultPlan(
        name="worker-mayhem",
        faults=(
            WorkerCrash(at=0.4, worker="worker-0", duration_s=0.8),
            HeartbeatLoss(at=0.6, worker="worker-1", duration_s=0.9),
            SlowWorker(at=0.3, worker="worker-2", factor=4.0, duration_s=1.0),
        ),
    )

    def run_with_chaos(self, seed: int):
        platform = make_platform(
            SCHED_YAML,
            {"s/bump": (_bump, 0.002)},
            nodes=3,
            seed=seed,
            events_enabled=True,
            scheduler=SchedulerConfig(
                enabled=True,
                pool_size=3,
                heartbeat_interval_s=0.1,
                dead_after_misses=4,
                dispatch_overhead_s=0.002,
            ),
        )
        ids = [
            platform.new_object("Task", object_id=f"t-{i}") for i in range(3)
        ]
        platform.inject_chaos(self.PLAN)
        for i in range(40):
            platform.invoke_async(ids[i % 3], "bump")
            platform.advance(0.02)
        platform.advance(10.0)
        outcome = {
            "audit": platform.scheduler_plane.ledger.audit(),
            "delivered": platform.scheduler_plane.delivered,
            "completed": platform.queue.completed,
            "events": platform.events.render(),
        }
        platform.shutdown()
        return outcome

    def test_same_seed_and_plan_replays_identically(self):
        first = self.run_with_chaos(seed=11)
        second = self.run_with_chaos(seed=11)
        assert first["audit"]["requeues"] > 0  # the chaos actually bit
        assert first["audit"]["outstanding"] == 0  # and nothing was lost
        assert first == second


# -- property test: exactly-once under arbitrary interleavings ---------------

chaos_steps = st.lists(
    st.one_of(
        st.builds(
            Submit,
            at=st.floats(0.0, 2.0).map(lambda v: round(v, 3)),
            count=st.integers(1, 3),
            object_key=st.integers(0, 2),
        ),
        st.builds(
            Crash,
            at=st.floats(0.2, 2.0).map(lambda v: round(v, 3)),
            worker=st.sampled_from([f"worker-{i}" for i in range(4)]),
        ),
        st.builds(
            Drain,
            at=st.floats(0.2, 2.0).map(lambda v: round(v, 3)),
            worker=st.sampled_from([f"worker-{i}" for i in range(4)]),
        ),
        st.builds(
            LoseHeartbeats,
            at=st.floats(0.2, 2.0).map(lambda v: round(v, 3)),
            worker=st.sampled_from([f"worker-{i}" for i in range(4)]),
            duration_s=st.floats(0.15, 0.8).map(lambda v: round(v, 3)),
        ),
    ),
    min_size=1,
    max_size=10,
)


class TestExactlyOnceProperty:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(steps=chaos_steps)
    def test_every_accepted_invocation_completes_exactly_once(self, steps):
        """Whatever interleaving of submits, crashes, drains, and
        heartbeat losses hypothesis invents, no accepted invocation is
        dropped or double-delivered."""
        scenario = Scenario(name="hypothesis", steps=tuple(steps))
        result = run_scenario(scenario)
        assert check_exactly_once(result) == [], result.skipped_steps


LATE_YAML = """
name: late-app
classes:
  - name: Late
    keySpecs: [{name: n, type: INT, default: 0}]
    functions:
      - name: bump
        image: s/bump
"""


class TestBugfixSweep:
    """Regressions for the scheduler-plane bugfix sweep (PR 8)."""

    def test_unknown_class_parks_until_deploy(self):
        """A submit racing ``on_deploy`` must park, not dispatch to a
        worker that never installed the class."""
        from repro.invoker.request import InvocationRequest

        platform = sched_platform()
        plane = platform.scheduler_plane
        request = InvocationRequest(
            object_id="Late~r0", fn_name="bump", cls="Late"
        )
        plane.submit(request)
        platform.advance(1.0)
        # Parked, not dispatched: no worker ever saw it.
        assert plane.core.parked == 1
        # Cumulative: every flush attempt that re-parks counts.
        assert plane.parked_total >= 1
        assert plane.ledger.entry(request.request_id).state.value == "ACCEPTED"
        assert all(
            w.dispatched_count == 0 for w in plane.workers.values()
        )
        # The deploy lands; the parked request flushes and completes.
        platform.deploy(LATE_YAML)
        platform.new_object("Late", object_id="r0")
        platform.advance(2.0)
        assert plane.core.parked == 0
        entry = plane.ledger.entry(request.request_id)
        assert entry.state.value == "COMPLETED"
        platform.shutdown()

    def test_chaos_seam_guards_consistent_on_dead_workers(self):
        """clear_worker_slow must refuse dead workers exactly like
        set_worker_slow and resume_heartbeats."""
        platform = sched_platform()
        platform.advance(0.5)
        plane = platform.scheduler_plane
        assert plane.set_worker_slow("worker-0", 3.0) is True
        assert plane.clear_worker_slow("worker-0") is True
        plane.crash_worker("worker-0", reason="test")
        assert plane.set_worker_slow("worker-0", 3.0) is False
        assert plane.resume_heartbeats("worker-0") is False
        assert plane.suppress_heartbeats("worker-0", 1.0) is False
        assert plane.clear_worker_slow("worker-0") is False
        assert plane.clear_worker_slow("no-such-worker") is False
        platform.shutdown()

    def test_stop_reports_parked_and_halts_workers(self):
        """stop() must mirror ConsumerGroup.stop()'s report shape and
        leave no worker processes running on the kernel."""
        from repro.invoker.request import InvocationRequest

        platform = sched_platform()
        obj = platform.new_object("Task", object_id="t-0")
        for _ in range(3):
            platform.invoke_async(obj, "bump")
        platform.advance(2.0)
        plane = platform.scheduler_plane
        plane.submit(
            InvocationRequest(object_id="Late~r1", fn_name="bump", cls="Late")
        )
        report = plane.stop()
        assert report == {"pending": 1, "parked": 1}
        # Idempotent: a second stop (shutdown calls it again) re-reports.
        assert plane.stop() == {"pending": 1, "parked": 1}
        # Halted: no heartbeat/work-loop activity after stop, ever.
        beats = plane.heartbeats
        sent = [w.heartbeats_sent for w in plane.workers.values()]
        platform.advance(5.0)
        assert plane.heartbeats == beats
        assert [w.heartbeats_sent for w in plane.workers.values()] == sent
        platform.shutdown()

    def test_dead_workers_queue_leaves_the_shedders_sight(self):
        """With QoS on, each worker queues in a plane-issued fair queue;
        a dead worker's is retired (the shedder watches live queues
        only) without the plane's totals running backwards."""
        from repro.qos.plane import QosConfig

        platform = make_platform(
            SCHED_YAML,
            {"s/bump": (_bump, 0.002)},
            nodes=3,
            seed=9,
            scheduler=SchedulerConfig(enabled=True, pool_size=3),
            qos=QosConfig(enabled=True),
        )
        plane, qos = platform.scheduler_plane, platform.qos
        objects = [platform.new_object("Task", object_id=f"t-{i}") for i in range(6)]
        for obj in objects * 5:
            platform.invoke_async(obj, "bump")
        platform.advance(0.2)
        live = lambda: [w.queue for w in plane.workers.values() if not w.machine.is_dead]
        assert qos.queues == live() and qos.shedder.queues is qos.queues
        before = qos.stats()["fair_queue"]
        assert before["pushed"] == 30
        plane.crash_worker("worker-0", reason="test")
        plane.drain_worker("worker-1")
        platform.advance(5.0)
        assert len(qos.queues) == 3 and qos.queues == live()
        after = qos.stats()["fair_queue"]
        assert after["pushed"] >= before["pushed"] and after["served"] >= 30
        assert plane.ledger.audit()["completed"] == 30 == platform.queue.completed
        platform.shutdown()

    def test_transport_config_validated(self):
        with pytest.raises(ValidationError):
            SchedulerConfig(enabled=True, transport="carrier-pigeon")
        assert SchedulerConfig(enabled=True, transport="asyncio").transport == "asyncio"
