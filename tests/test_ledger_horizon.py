"""The ledger's completion horizon, at its edges.

A completed entry drops its request and stays addressable for the next
``COMPLETION_HORIZON`` completions; after that its id is one the ledger
never heard of.  What must survive the forgetting: a duplicate inside
the horizon is still narrated with its seq, one past it is counted and
goes nowhere, a parked request that finished elsewhere is not run
again, and ``accepted == completed + outstanding`` holds however much
traffic has passed.
"""

import asyncio

from repro.invoker.request import InvocationRequest
from repro.scheduler.ledger import COMPLETION_HORIZON, EntryState
from repro.scheduler.plane import SchedulerConfig
from repro.scheduler.state import WorkerState
from repro.scheduler.transport.protocol import Complete, Dispatch

from tests.helpers import make_platform, run_async, wait_for
from tests.test_real_path_budget import QUIET
from tests.test_transport_asyncio import RawWorker, request_for, start_server
from tests.test_transport_protocol import FakePort, _result, make_core


def _serving_core():
    core, events = make_core()
    worker = FakePort("w-0")
    worker.installed.add("C")
    core.add_worker(worker)
    return core, events, worker


def _run_through(core, count):
    """``count`` more invocations accepted, dispatched and completed."""
    for index in range(count):
        request = InvocationRequest(object_id=f"C~fill-{index}", fn_name="f", cls="C")
        core.submit(request)
        assert core.complete("w-0", request, _result(request)) is True


class TestForgetting:
    def test_completed_entry_drops_its_request_and_keeps_what_readers_use(self):
        core, _, _ = _serving_core()
        request = InvocationRequest(object_id="C~a", fn_name="f", cls="C")
        core.submit(request)
        entry = core.ledger.entry(request.request_id)
        assert entry.request is request
        core.complete("w-0", request, _result(request))
        assert entry.request is None
        assert entry.to_dict() == {
            "request_id": request.request_id,
            "seq": 1,
            "state": "COMPLETED",
            "worker": "w-0",
            "attempts": 1,
            "accepted_at": 0.0,
            "completed_at": 0.0,
            "ok": True,
        }

    def test_only_the_last_horizon_of_completions_stays_addressable(self):
        core, _, _ = _serving_core()
        first = InvocationRequest(object_id="C~first", fn_name="f", cls="C")
        core.submit(first)
        core.complete("w-0", first, _result(first))
        _run_through(core, COMPLETION_HORIZON - 1)
        assert core.ledger.entry(first.request_id).state is EntryState.COMPLETED
        _run_through(core, 1)
        assert core.ledger.entry(first.request_id) is None
        assert len(core.ledger) == core.ledger.retained_completions == COMPLETION_HORIZON
        assert core.stats()["retained_completions"] == COMPLETION_HORIZON

    def test_duplicate_inside_the_horizon_is_suppressed_past_it_late(self):
        core, events, _ = _serving_core()
        delivered = []
        core.on_complete = lambda request, result: delivered.append(request.request_id)
        request = InvocationRequest(object_id="C~a", fn_name="f", cls="C")
        core.submit(request)
        core.complete("w-0", request, _result(request))
        _run_through(core, COMPLETION_HORIZON - 1)
        assert core.complete("w-0", request, _result(request)) is False
        assert events[-1] == ("scheduler.suppressed", {"worker": "w-0", "request": 1})
        _run_through(core, 1)
        before = len(events)
        assert core.complete("w-0", request, _result(request)) is False  # no raise
        assert core.late == 1 and core.stats()["late"] == 1
        assert len(events) == before  # nothing to narrate: the seq is gone too
        assert delivered.count(request.request_id) == 1
        audit = core.ledger.audit()
        assert audit["suppressed"] == 1
        assert audit["accepted"] == audit["completed"] == COMPLETION_HORIZON + 1

    def test_parked_request_completed_and_forgotten_is_not_routed_again(self):
        core, _, worker = _serving_core()
        request = InvocationRequest(object_id="C~a", fn_name="f", cls="C")
        core.submit(request)
        worker.machine.transition(WorkerState.DEGRADED, 0.0, "test")
        assert core.reroute("w-0", worker.take_queue()) == 1 and core.parked == 1
        # The worker had pulled it and finishes it; it stays parked while
        # a horizon's worth of other work completes around it.
        assert core.complete("w-0", request, _result(request)) is True
        worker.machine.transition(WorkerState.READY, 0.0, "test")
        pushed = len(worker.pushed)
        for index in range(COMPLETION_HORIZON):
            other = InvocationRequest(object_id=f"C~o-{index}", fn_name="f", cls="C")
            core.ledger.accept(other, 0.0)
            core.dispatch(worker, other)
            core.complete("w-0", other, _result(other))
        assert core.ledger.entry(request.request_id) is None
        core.flush_unassigned()
        assert core.parked == 0
        assert len(worker.pushed) == pushed + COMPLETION_HORIZON  # not one more
        audit = core.ledger.audit()
        assert audit["accepted"] == audit["completed"] and audit["outstanding"] == 0


class TestOverSockets:
    def test_replayed_complete_inside_the_horizon_then_past_it(self):
        """A worker replays a ``Complete`` it already sent: inside the
        horizon that is one ``scheduler.suppressed`` carrying the entry's
        seq; a horizon of completions later it is counted ``late`` —
        never delivered, and nothing reaches the loop's exception
        handler (``run_async`` would fail the test)."""

        async def scenario():
            # ``RawWorker`` sends no heartbeats: under the default 0.05 s
            # × 4 silence budget a 200 ms stall of the host retires it in
            # the middle of the 1 024 dispatches below.
            server = await start_server(
                config=SchedulerConfig(enabled=True, transport="asyncio", pool_size=2, **QUIET)
            )
            raw = RawWorker("raw-0")
            await raw.connect(server.port)
            await wait_for(lambda: server.core.workers["raw-0"].machine.is_dispatchable)

            async def serve(count):
                """Answer ``count`` dispatches; the frames sent, in order."""
                sent = []
                for _ in range(count):
                    dispatch = await raw.recv(Dispatch)
                    sent.append(
                        Complete(
                            worker="raw-0",
                            epoch=dispatch.epoch,
                            request_id=dispatch.request_id,
                            ok=True,
                        )
                    )
                    raw.send(sent[-1])
                return sent

            futures = [server.submit(request_for(f"r-{n}")) for n in range(3)]
            frames = await serve(3)
            await asyncio.wait_for(asyncio.gather(*futures), 10)
            raw.send(frames[1])  # the second request's completion, again
            await wait_for(lambda: server.core.ledger.audit()["suppressed"] == 1)
            suppressed = [e for e in server.events if e.type == "scheduler.suppressed"]
            assert [e.fields for e in suppressed] == [{"worker": "raw-0", "request": 2}]

            futures = [
                server.submit(request_for(f"s-{n}")) for n in range(COMPLETION_HORIZON)
            ]
            await serve(COMPLETION_HORIZON)
            await asyncio.wait_for(asyncio.gather(*futures), 30)
            raw.send(frames[1])
            await wait_for(lambda: server.core.late == 1, message="late completion counted")
            stats = server.stats()
            assert stats["late"] == 1 and stats["ledger"]["suppressed"] == 1
            assert stats["delivered"] == stats["ledger"]["completed"] == COMPLETION_HORIZON + 3
            assert stats["retained_completions"] == COMPLETION_HORIZON
            assert stats["events_dropped"] > 0 and len(server.events) <= 2 * COMPLETION_HORIZON
            await raw.close()
            await server.stop()

        run_async(scenario())


HORIZON_YAML = """
name: horizon
classes:
  - name: Counter
    keySpecs: [{name: count, type: INT, default: 0}]
    functions:
      - {name: bump, image: t/bump}
"""


def _bump(ctx):
    ctx.state["count"] = int(ctx.state.get("count") or 0) + 1
    return {"count": ctx.state["count"]}


def test_conservation_holds_over_five_horizons_of_traffic_and_a_node_failure():
    platform = make_platform(
        HORIZON_YAML,
        {"t/bump": (_bump, 0.001)},
        nodes=3,
        seed=11,
        scheduler=SchedulerConfig(enabled=True, transport="sim"),
    )
    ids = [platform.new_object("Counter", object_id=f"c-{n}") for n in range(12)]
    total = 5 * COMPLETION_HORIZON
    completions = []
    for index in range(total):
        if index == total // 2:
            platform.fail_node(platform.cluster.nodes[1].name)
        completions.append(platform.invoke_async(ids[index % len(ids)], "bump"))
        if index % 64 == 63:
            platform.advance(0.05)
            audit = platform.queue.core.ledger.audit()
            assert audit["accepted"] == audit["completed"] + audit["outstanding"]
    platform.advance(10.0)
    core = platform.queue.core
    audit = core.ledger.audit()
    assert audit == {**audit, "accepted": total, "completed": total, "outstanding": 0}
    assert core.delivered == total and core.late == 0
    # Every submission resolved, once (a few as typed contention
    # failures where the crash put two attempts on one object).
    assert all(event.triggered for event in completions)
    assert sum(event.value.ok for event in completions) > 0.99 * total
    # What the control plane still holds is the horizon, not the history.
    assert len(core.ledger) == core.ledger.retained_completions == COMPLETION_HORIZON
    assert len(platform.queue.results) == COMPLETION_HORIZON
    polled = [platform.queue.result(event.value.request_id) for event in completions]
    assert polled[0] is None  # evicted = unknown
    assert sum(result is not None for result in polled) == COMPLETION_HORIZON
    assert all(
        result is None or result is event.value for result, event in zip(polled, completions)
    )
    platform.shutdown()
