"""The real path's budget, in counts.

``HTTP front → DispatchCore → TCP worker → engine`` over loopback: what
the scheduler hop adds to an invocation is held here as exact counts,
like ``tests/test_hot_path_budget.py`` holds the sim path's — frames per
dispatched invocation, ``dataclasses.asdict`` calls, top-level
``copy.deepcopy`` calls, and the event loop's futures, callbacks, timers
and tasks.  docs/architecture.md, "Hot-path rules", and
docs/scheduler.md, "Transports" and "Wire protocol", say what keeps them
there.
"""

import asyncio
import collections
import copy
import dataclasses
import json
import socket
import threading

from repro.errors import ValidationError

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


#: What the event loop is asked for per unit of work it is handed.
LOOP_CALLS = ("create_future", "call_soon", "call_at", "create_task")


class LoopCounters:
    """Counts the loop's futures, callbacks, timers and tasks; asyncio's
    own code and its C accelerator look each of these up on the loop
    instance, so the instance attribute sees every call."""

    def __init__(self, monkeypatch, loop):
        self.counts = collections.Counter()
        for name in LOOP_CALLS:
            monkeypatch.setattr(loop, name, self._counted(name, getattr(loop, name)))

    def _counted(self, name, original):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return original(*args, **kwargs)

        return counted


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


class BlockingKeepAlive:
    """One keep-alive HTTP/1.1 connection on a blocking socket, for a
    client thread: nothing the client does runs on the server's loop."""

    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port))
        self.file = self.sock.makefile("rb")

    def request(self, method, path, body=None):
        payload = json.dumps(body or {}).encode()
        self.sock.sendall(
            f"{method} {path} HTTP/1.1\r\nContent-Length: {len(payload)}\r\n\r\n".encode()
            + payload
        )
        status = int(self.file.readline().split(b" ")[1])
        length = 0
        for line in iter(self.file.readline, b"\r\n"):
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        return status, json.loads(self.file.read(length))

    def close(self):
        self.file.close()
        self.sock.close()


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
        connections = [BlockingKeepAlive(front.host, front.port) for _ in range(CONNECTIONS)]
        loop = LoopCounters(monkeypatch, asyncio.get_running_loop())
        counters = HopCounters(monkeypatch)
        # Snapshots of the loop's counts, taken while both clients wait
        # between their warm-up and their last request's answer.
        snapshots = []
        barrier = threading.Barrier(CONNECTIONS, lambda: snapshots.append(dict(loop.counts)))

        def client(connection, own):
            # Each connection works its own slice of the objects, so the
            # counts are the path's and not a commit conflict's.
            assert connection.request("GET", "/api/workers")[0] == 200  # set up
            barrier.wait()
            for index in range((ADDS + PEEKS) // CONNECTIONS):
                fn = ("add", "peek")[index % 2]
                status, body = connection.request(
                    "POST", f"/api/objects/{own[index % len(own)]}/invokes/{fn}", {"n": 1}
                )
                assert status == 200 and "total" in body
            barrier.wait()

        await asyncio.gather(
            *[
                asyncio.to_thread(client, c, ids[i::CONNECTIONS])
                for i, c in enumerate(connections)
            ]
        )
        monkeypatch.undo()
        status, listing = await asyncio.to_thread(connections[0].request, "GET", "/api/workers")
        for connection in connections:
            connection.close()
        assert await front.stop() == {"pending": 0, "parked": 0}
        before, after = snapshots
        work = {name: after.get(name, 0) - before.get(name, 0) for name in LOOP_CALLS}
        return counters, work, listing

    counters, work, listing = run_async(scenario())
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
    # A request crosses each socket in a read callback: the front's, the
    # worker link's (which runs the engine) and the scheduler link's
    # (which writes the answer) — no future, callback, timer or task of
    # its own (2.95, 3.95, 2.00 and 0 per invocation over streams).
    assert work == dict.fromkeys(LOOP_CALLS, 0)


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


def test_an_inline_executor_that_raises_fails_its_item_and_keeps_its_link():
    """An executor that returns its fields runs in the worker link's read
    callback, where the link treats ``ValidationError`` as a peer not
    speaking the protocol.  One raised by the executor is the item's
    failure instead: it completes ``ok=False``, typed, and the link, the
    registration and the next dispatch carry on."""

    async def scenario():
        server = AsyncSchedulerServer(
            config=SchedulerConfig(enabled=True, transport="asyncio", pool_size=1, **QUIET),
            classes=["C"],
        )
        await server.start()

        def executor(dispatch, client):
            if dispatch.fn_name == "bad":
                raise ValidationError("no such width")
            return {"ok": True, "output": {"fn": dispatch.fn_name}}

        client = AsyncWorkerClient(
            "w-0", "127.0.0.1", server.port, executor, heartbeat_interval_s=30.0
        )
        await client.connect()
        port = server.core.workers["w-0"]
        await wait_for(lambda: port.machine.is_dispatchable, message="worker ready")
        failed, served = [
            await asyncio.wait_for(
                server.submit(InvocationRequest(object_id="C~1", fn_name=fn, cls="C")), 5
            )
            for fn in ("bad", "good")
        ]
        assert (failed.ok, failed.error_type, failed.error) == (
            False, "ValidationError", "no such width",
        )
        assert served.ok and served.output == {"fn": "good"}
        assert server.protocol_errors == 0
        assert not client._transport.is_closing()
        assert server.core.workers["w-0"] is port and port.machine.is_dispatchable
        assert client.completed == 2
        await client.close()
        await server.stop()

    run_async(scenario())
