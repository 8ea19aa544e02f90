"""The real path's budget, in counts.

``HTTP front → DispatchCore → TCP worker → engine`` over loopback: what
the scheduler hop adds to an invocation is held here as exact counts,
like ``tests/test_hot_path_budget.py`` holds the sim path's — frames per
dispatched invocation, ``dataclasses.asdict`` calls and top-level
``copy.deepcopy`` calls.  docs/architecture.md, "Hot-path rules", and
docs/scheduler.md, "Wire protocol", say what keeps them there.
"""

import asyncio
import collections
import copy
import dataclasses
import json

from repro.invoker.request import InvocationRequest
from repro.scheduler.plane import SchedulerConfig
from repro.scheduler.state import WorkerState
from repro.scheduler.transport import aio, protocol
from repro.scheduler.transport.aio import AsyncSchedulerServer, AsyncWorkerClient
from repro.scheduler.transport.protocol import Complete, Executing

from tests.helpers import make_platform, run_async, wait_for

ORDER_YAML = """
name: budget
classes:
  - name: Order
    keySpecs:
      - {name: total, type: INT, default: 0}
      - {name: note, type: STR, default: ""}
    functions:
      - {name: add, image: budget/add, provision: {minScale: 3}}
      - {name: peek, image: budget/peek, mutable: false, provision: {minScale: 3}}
"""

OBJECTS = 40
CONNECTIONS = 2
ADDS = PEEKS = 200

#: No heartbeat falls inside a run, so every frame counted is an
#: invocation's.
QUIET = dict(heartbeat_interval_s=30.0, degraded_after_misses=3, dead_after_misses=6)


def add(ctx):
    ctx.state["total"] = ctx.state.get("total", 0) + ctx.payload.get("n", 1)
    return {"total": ctx.state["total"]}


def peek(ctx):
    return {"total": ctx.state.get("total", 0)}


class HopCounters:
    """Counts what the hop may not do more than its budget of: frames
    (by message type), ``asdict`` calls and top-level ``deepcopy`` calls."""

    def __init__(self, monkeypatch):
        self.frames = collections.Counter()
        self.asdict = 0
        self.deepcopies = 0
        encode_frame, asdict, deepcopy = (
            protocol.encode_frame, dataclasses.asdict, copy.deepcopy,
        )

        def counted_frame(message):
            self.frames[type(message).__name__] += 1
            return encode_frame(message)

        def counted_asdict(*args, **kwargs):
            self.asdict += 1
            return asdict(*args, **kwargs)

        def counted_deepcopy(x, memo=None, *args):
            self.deepcopies += memo is None  # the copier's own recursion passes one
            return deepcopy(x, memo, *args)

        # Every frame goes through the module-level name, looked up at
        # call time, in the codec and in the transport that imported it.
        monkeypatch.setattr(protocol, "encode_frame", counted_frame)
        monkeypatch.setattr(aio, "encode_frame", counted_frame)
        monkeypatch.setattr(dataclasses, "asdict", counted_asdict)
        monkeypatch.setattr(protocol, "asdict", counted_asdict, raising=False)
        monkeypatch.setattr(copy, "deepcopy", counted_deepcopy)

    @property
    def invocation_frames(self) -> int:
        return sum(self.frames[kind] for kind in ("Dispatch", "Executing", "Complete"))


class KeepAlive:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    async def request(self, method, path, body=None):
        payload = json.dumps(body or {}).encode()
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nContent-Length: {len(payload)}\r\n\r\n".encode()
            + payload
        )
        head = await self.reader.readuntil(b"\r\n\r\n")
        length = int(head.lower().partition(b"content-length:")[2].split(b"\r\n")[0])
        return int(head.split(b" ")[1]), json.loads(await self.reader.readexactly(length))


def test_an_invocation_costs_two_frames_and_copies_nothing(monkeypatch):
    platform = make_platform(
        ORDER_YAML,
        {"budget/add": (add, 0.002), "budget/peek": (peek, 0.002)},
        nodes=3,
        seed=7,
        scheduler=SchedulerConfig(enabled=True, transport="asyncio", pool_size=2, **QUIET),
    )
    ids = [
        platform.new_object("Order", {"note": "x" * 64}, object_id=f"o-{index}")
        for index in range(OBJECTS)
    ]
    platform.flush()

    async def scenario():
        front = await platform.serve_http()
        connections = [
            KeepAlive(*await asyncio.open_connection(front.host, front.port))
            for _ in range(CONNECTIONS)
        ]
        counters = HopCounters(monkeypatch)

        async def client(connection, own):
            # Each connection works its own slice of the objects, so the
            # counts are the path's and not a commit conflict's.
            for index in range((ADDS + PEEKS) // CONNECTIONS):
                fn = ("add", "peek")[index % 2]
                status, body = await connection.request(
                    "POST", f"/api/objects/{own[index % len(own)]}/invokes/{fn}", {"n": 1}
                )
                assert status == 200 and "total" in body

        await asyncio.gather(
            *[client(c, ids[i::CONNECTIONS]) for i, c in enumerate(connections)]
        )
        monkeypatch.undo()
        status, listing = await connections[0].request("GET", "/api/workers")
        for connection in connections:
            connection.writer.close()
        assert await front.stop() == {"pending": 0, "parked": 0}
        return counters, listing

    counters, listing = run_async(scenario())
    totals = sum(platform.get_object(oid)["state"]["total"] for oid in ids)
    platform.shutdown()
    assert totals == ADDS  # every acknowledged add is in the object it addressed
    invocations = ADDS + PEEKS
    ledger = listing["ledger"]
    assert ledger["accepted"] == ledger["completed"] == invocations
    assert ledger["outstanding"] == 0
    assert sum(row["completed"] for row in listing["workers"]) == invocations
    # dispatch → complete: the engine run never yields to the loop, so
    # no ``executing`` was ever observable and none is sent.
    assert counters.frames["Dispatch"] == counters.frames["Complete"] == invocations
    assert counters.invocation_frames / invocations == 2.0
    # A message is encoded from its own fields and copied nowhere
    # (``asdict`` reaches the copier as ``copy.deepcopy``, which is the
    # name counted: 3 and 19 per invocation at commit 03ce2da).
    assert counters.asdict == 0
    assert counters.deepcopies == 0


def test_an_executor_that_yields_is_seen_in_flight(monkeypatch):
    """``executing`` is only held back for one turn of the loop: an
    executor that awaits anything is reported in flight before it
    completes (three frames), so a degrade while it runs moves what is
    queued behind it and leaves it where it is."""

    async def scenario():
        server = AsyncSchedulerServer(
            config=SchedulerConfig(enabled=True, transport="asyncio", pool_size=2, **QUIET),
            classes=["C"],
        )
        await server.start()
        gate = asyncio.Event()
        gate.set()

        async def executor(dispatch, client):
            await asyncio.sleep(0)
            await gate.wait()
            return {"ok": True, "output": {"fn": dispatch.fn_name}}

        clients = []
        for name in ("w-0", "w-1"):
            client = AsyncWorkerClient(
                name, "127.0.0.1", server.port, executor, heartbeat_interval_s=30.0
            )
            await client.connect()
            clients.append(client)
        await wait_for(
            lambda: all(w.machine.is_dispatchable for w in server.core.workers.values()),
            message="pool ready",
        )

        seen = []  # what the server handled, in order
        on_message = server._on_message

        def recording(worker, message):
            seen.append(message)
            on_message(worker, message)

        monkeypatch.setattr(server, "_on_message", recording)
        counters = HopCounters(monkeypatch)
        requests = [
            InvocationRequest(object_id=f"C~{index}", fn_name="f", cls="C")
            for index in range(40)
        ]
        results = await asyncio.wait_for(
            asyncio.gather(*[server.submit(request) for request in requests]), 10
        )
        assert all(result.ok for result in results)
        order = {(type(m), m.request_id): at for at, m in enumerate(seen)}
        for request in requests:
            rid = request.request_id
            assert order[Executing, rid] < order[Complete, rid]
        assert counters.invocation_frames / len(requests) == 3.0
        monkeypatch.undo()

        # Two more for one worker: the first starts executing and stops
        # at the gate, the second queues behind it.
        gate.clear()
        port = server.core.workers["w-0"]
        own = [
            request
            for request in (
                InvocationRequest(object_id=f"C~x{index}", fn_name="f", cls="C")
                for index in range(64)
            )
            if server.core.pick(request) is port
        ][:2]
        futures = [server.submit(request) for request in own]
        running, queued = (request.request_id for request in own)
        await wait_for(lambda: running in port.executing, message="first executing")
        server.core.degrade(port)
        assert port.machine.state is WorkerState.DEGRADED
        assert set(port.items) == {running}  # in flight: stays
        assert queued in server.core.workers["w-1"].items  # queued: rebound
        gate.set()
        assert all(r.ok for r in await asyncio.wait_for(asyncio.gather(*futures), 10))
        audit = server.core.ledger.audit()
        assert audit["requeues"] == 1
        assert audit["accepted"] == audit["completed"] == len(requests) + 2
        for client in clients:
            await client.close()
        await server.stop()

    run_async(scenario())
