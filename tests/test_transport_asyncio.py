"""Tests for the real asyncio scheduler/worker transport: registration,
dispatch/complete round trips, connection-drop crashes with epoch
fencing, stale/duplicate completions, drain, and the HTTP front end.

All asyncio here is driven through :func:`tests.helpers.run_async`
(``asyncio.run`` plus a loop exception handler that fails the test on
anything it receives) inside sync tests, so the suite needs no pytest
plugin.  Wall-clock timings are generous
multiples of the heartbeat interval — the assertions are about protocol
invariants, never about exact timing.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import SchedulingError
from repro.invoker.request import InvocationRequest
from repro.scheduler.plane import SchedulerConfig
from repro.scheduler.state import WorkerState
from repro.scheduler.transport.aio import AsyncSchedulerServer, AsyncWorkerClient
from repro.scheduler.transport.protocol import (
    MAX_FRAME_BYTES,
    _LENGTH,
    Complete,
    Dispatch,
    FrameDecoder,
    InstallAck,
    Message,
    Ready,
    Register,
    RegisterAck,
    encode_frame,
)

from tests.helpers import run_async, wait_for

CONFIG = SchedulerConfig(
    enabled=True,
    transport="asyncio",
    pool_size=2,
    heartbeat_interval_s=0.05,
    degraded_after_misses=2,
    dead_after_misses=4,
)


async def start_server(classes=("C",), config=CONFIG) -> AsyncSchedulerServer:
    server = AsyncSchedulerServer(config=config, classes=list(classes))
    await server.start()
    return server


def echo_executor(delay_s: float = 0.0):
    async def executor(dispatch: Dispatch, client: AsyncWorkerClient) -> dict:
        if delay_s:
            await asyncio.sleep(delay_s * client.slow_factor)
        return {"ok": True, "output": {"fn": dispatch.fn_name}}

    return executor


async def connect_worker(
    server: AsyncSchedulerServer, name: str, executor=None
) -> AsyncWorkerClient:
    client = AsyncWorkerClient(
        name,
        "127.0.0.1",
        server.port,
        executor or echo_executor(),
        heartbeat_interval_s=CONFIG.heartbeat_interval_s,
    )
    await client.connect()
    return client


def request_for(suffix: str) -> InvocationRequest:
    return InvocationRequest(object_id=f"C~{suffix}", fn_name="f", cls="C")


class RawWorker:
    """A hand-rolled protocol speaker for adversarial server tests."""

    def __init__(self, name: str):
        self.name = name
        self.epoch = -1
        self.inbox: asyncio.Queue[Message] = asyncio.Queue()
        self._reader = None
        self._writer = None
        self._task = None

    async def connect(self, port: int) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", port
        )
        self.send(Register(worker=self.name))
        self._task = asyncio.ensure_future(self._pump())
        ack = await self.recv(RegisterAck)
        if ack.error is not None:
            raise SchedulingError(ack.error)
        self.epoch = ack.epoch
        for cls in ack.classes:
            self.send(InstallAck(worker=self.name, epoch=self.epoch, cls=cls))
        self.send(Ready(worker=self.name, epoch=self.epoch))

    async def _pump(self) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                data = await self._reader.read(65536)
                if not data:
                    return
                for message in decoder.feed(data):
                    self.inbox.put_nowait(message)
        except (ConnectionError, asyncio.CancelledError):
            pass

    def send(self, message: Message) -> None:
        self._writer.write(encode_frame(message))

    def send_raw(self, data: bytes) -> None:
        self._writer.write(data)

    async def recv(self, kind, timeout_s: float = 5.0):
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while loop.time() < deadline:
            try:
                message = await asyncio.wait_for(self.inbox.get(), 0.25)
            except asyncio.TimeoutError:
                continue
            if isinstance(message, kind):
                return message
        raise AssertionError(f"no {kind.__name__} frame arrived")

    async def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
        if self._writer is not None:
            self._writer.close()
        await asyncio.sleep(0)


class TestRoundTrip:
    def test_register_dispatch_complete(self):
        async def scenario():
            server = await start_server()
            workers = [
                await connect_worker(server, f"w-{i}", echo_executor(0.002))
                for i in range(2)
            ]
            await wait_for(
                lambda: server.core.live_workers == 2
                and all(
                    w.machine.is_dispatchable for w in server.core.workers.values()
                ),
                message="pool ready",
            )
            futures = [server.submit(request_for(str(i))) for i in range(10)]
            results = await asyncio.wait_for(asyncio.gather(*futures), 10)
            assert all(r.ok for r in results)
            assert server.core.ledger.audit() == {
                "accepted": 10,
                "completed": 10,
                "outstanding": 0,
                "requeues": 0,
                "suppressed": 0,
            }
            types = [e.type for e in server.events]
            assert types.count("scheduler.register") == 2
            assert types.count("scheduler.ready") == 2
            assert types.count("scheduler.dispatch") == 10
            assert types.count("scheduler.complete") == 10
            for worker in workers:
                await worker.close()
            assert await server.stop() == {"pending": 0, "parked": 0}

        run_async(scenario())

    def test_duplicate_registration_rejected(self):
        async def scenario():
            server = await start_server()
            first = await connect_worker(server, "w-0")
            with pytest.raises(SchedulingError, match="already registered"):
                await connect_worker(server, "w-0")
            # The rejection must not have crashed the live registration.
            assert server.core.live_workers == 1
            await first.close()
            await server.stop()

        run_async(scenario())

    def test_unknown_class_parks_until_deploy(self):
        async def scenario():
            server = await start_server(classes=())
            worker = await connect_worker(server, "w-0")
            await wait_for(lambda: server.core.live_workers == 1)
            future = server.submit(
                InvocationRequest(object_id="Late~a", fn_name="f", cls="Late")
            )
            await asyncio.sleep(0.1)
            assert server.core.parked == 1 and not future.done()
            server.on_deploy("Late")  # install + flush
            result = await asyncio.wait_for(future, 5)
            assert result.ok
            await worker.close()
            await server.stop()

        run_async(scenario())


class TestConnectionDropCrash:
    def test_mid_dispatch_drop_fences_and_requeues(self):
        """The satellite edge case: a connection drop while the worker
        is mid-execution must fence its epoch and requeue the item, and
        the redispatched attempt completes exactly once."""

        async def scenario():
            server = await start_server()
            hold = asyncio.Event()

            async def sticky(dispatch: Dispatch, client: AsyncWorkerClient) -> dict:
                if client.name == "victim":
                    await hold.wait()  # never released: the crash wins
                return {"ok": True, "output": {}}

            victim = await connect_worker(server, "victim", sticky)
            backup = await connect_worker(server, "backup", sticky)
            await wait_for(
                lambda: all(
                    w.machine.is_dispatchable for w in server.core.workers.values()
                )
            )
            # Find an object the victim owns under rendezvous hashing.
            suffix = next(
                s
                for s in (f"o{i}" for i in range(64))
                if server.core.pick(request_for(s)).name == "victim"
            )
            request = request_for(suffix)
            future = server.submit(request)
            port = server.core.workers["victim"]
            await wait_for(
                lambda: request.request_id in port.executing,
                message="victim executing",
            )
            epoch_before = port.epoch
            victim.kill()  # real connection drop, no goodbye
            result = await asyncio.wait_for(future, 10)
            assert result.ok
            assert port.epoch == epoch_before + 1  # fenced
            assert port.machine.is_dead
            audit = server.core.ledger.audit()
            assert audit["requeues"] == 1
            assert audit["completed"] == 1 and audit["outstanding"] == 0
            dead = [e for e in server.events if e.type == "scheduler.dead"]
            assert dead and dead[0].fields["reason"] == "connection-lost"
            assert dead[0].fields["requeued"] == 1
            await backup.close()
            await server.stop()

        run_async(scenario())

    def test_heartbeat_timeout_crashes_zombie(self):
        async def scenario():
            server = await start_server()
            zombie = await connect_worker(server, "zombie")
            spare = await connect_worker(server, "spare")
            await wait_for(
                lambda: all(
                    w.machine.is_dispatchable for w in server.core.workers.values()
                )
            )
            port = server.core.workers["zombie"]
            zombie.suppress_heartbeats(30.0)
            await wait_for(lambda: port.machine.is_dead, message="zombie declared dead")
            assert "zombie" not in server.core.workers  # retired: its row is gone
            reasons = [
                e.fields["reason"]
                for e in server.events
                if e.type == "scheduler.dead"
            ]
            assert "heartbeat-timeout" in reasons
            # Submissions keep flowing through the survivor.
            result = await asyncio.wait_for(server.submit(request_for("x")), 10)
            assert result.ok
            await spare.close()
            await zombie.close()
            await server.stop()

        run_async(scenario())

    def test_lost_worker_can_rejoin_with_fresh_epoch(self):
        async def scenario():
            server = await start_server()
            first = await connect_worker(server, "w-0")
            await wait_for(lambda: server.core.live_workers == 1)
            first_epoch = server.core.workers["w-0"].epoch
            first.kill()
            await wait_for(lambda: server.core.live_workers == 0)
            second = await connect_worker(server, "w-0")
            await wait_for(
                lambda: server.core.live_workers == 1
                and server.core.workers["w-0"].machine.is_dispatchable
            )
            assert server.core.workers["w-0"].epoch > first_epoch
            assert server.core.registrations == 2
            assert server.core.epochs == {"w-0": server.core.workers["w-0"].epoch}
            result = await asyncio.wait_for(server.submit(request_for("y")), 10)
            assert result.ok
            await second.close()
            await server.stop()

        run_async(scenario())


class TestFencingAndDuplicates:
    def test_same_epoch_duplicate_complete_suppressed(self):
        """A duplicate completion over the same registration is
        suppressed by the ledger exactly like the sim path, emitting
        ``scheduler.suppressed``."""

        async def scenario():
            server = await start_server()
            raw = RawWorker("raw-0")
            await raw.connect(server.port)
            await wait_for(
                lambda: server.core.workers["raw-0"].machine.is_dispatchable
            )
            request = request_for("dup")
            future = server.submit(request)
            dispatch = await raw.recv(Dispatch)
            done = Complete(
                worker="raw-0",
                epoch=dispatch.epoch,
                request_id=dispatch.request_id,
                ok=True,
            )
            raw.send(done)
            raw.send(done)  # the duplicate
            result = await asyncio.wait_for(future, 10)
            assert result.ok
            await wait_for(
                lambda: server.core.ledger.audit()["suppressed"] == 1,
                message="duplicate suppressed",
            )
            assert server.core.delivered == 1
            assert any(e.type == "scheduler.suppressed" for e in server.events)
            await raw.close()
            await server.stop()

        run_async(scenario())

    def test_stale_epoch_complete_is_fenced_silently(self):
        """A completion carrying a fenced (old) epoch must be dropped
        without touching the ledger — completing it would wrongly close
        a redispatched entry."""

        async def scenario():
            server = await start_server()
            raw = RawWorker("raw-0")
            await raw.connect(server.port)
            await wait_for(
                lambda: server.core.workers["raw-0"].machine.is_dispatchable
            )
            request = request_for("stale")
            future = server.submit(request)
            dispatch = await raw.recv(Dispatch)
            raw.send(
                Complete(
                    worker="raw-0",
                    epoch=dispatch.epoch - 1,  # a fenced past
                    request_id=dispatch.request_id,
                    ok=True,
                )
            )
            await wait_for(lambda: server.fenced >= 1, message="fence counter")
            audit = server.core.ledger.audit()
            assert audit["completed"] == 0 and audit["suppressed"] == 0
            assert not future.done()
            raw.send(
                Complete(
                    worker="raw-0",
                    epoch=dispatch.epoch,
                    request_id=dispatch.request_id,
                    ok=True,
                )
            )
            result = await asyncio.wait_for(future, 10)
            assert result.ok and server.core.delivered == 1
            await raw.close()
            await server.stop()

        run_async(scenario())


def _framed(payload) -> bytes:
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    return _LENGTH.pack(len(body)) + body


#: What a registered worker can send that is framed like the protocol
#: but is not it.  The first three escaped the connection handler before
#: the links caught ``ValidationError`` and non-object payloads.
HOSTILE_FRAMES = {
    "not-an-object": _framed([1, 2]),
    "unknown-type": _framed({"type": "teleport"}),
    "missing-field": _framed({"type": "ready", "worker": "w"}),
    "unhashable-type": _framed({"type": ["ready"]}),
    "output-not-an-object": _framed(
        {"type": "complete", "worker": "hostile", "epoch": 1, "request_id": "r",
         "ok": True, "output": [1]}
    ),
    "oversized-length": _LENGTH.pack(MAX_FRAME_BYTES + 1),
    "invalid-utf8": _framed(b"\xff\xfe\x00\x01"),
}


class TestHostileFrames:
    @pytest.mark.parametrize("frame", HOSTILE_FRAMES.values(), ids=HOSTILE_FRAMES.keys())
    def test_hostile_frame_retires_the_sender_typed_and_counted(self, frame):
        """A registered worker holding one dispatched item sends bytes
        that are not a protocol message: its connection is closed, the
        registration retired as a protocol error, and the item it held
        completes on the peer — with nothing left for the loop's
        exception handler to report."""

        async def scenario():
            server = await start_server()
            hostile = RawWorker("hostile")
            await hostile.connect(server.port)
            peer = await connect_worker(server, "peer")
            await wait_for(
                lambda: all(
                    w.machine.is_dispatchable for w in server.core.workers.values()
                )
            )
            suffix = next(
                s
                for s in (f"o{i}" for i in range(64))
                if server.core.pick(request_for(s)).name == "hostile"
            )
            port = server.core.workers["hostile"]
            future = server.submit(request_for(suffix))
            await hostile.recv(Dispatch)
            hostile.send_raw(frame)
            result = await asyncio.wait_for(future, 10)
            assert result.ok
            assert port.machine.state is WorkerState.DEAD
            assert "hostile" not in server.core.workers
            # The connection was closed: the sender's pump ran into EOF.
            await asyncio.wait_for(hostile._task, 5)
            dead = [e for e in server.events if e.type == "scheduler.dead"]
            assert [(e.fields["reason"], e.fields["requeued"]) for e in dead] == [
                ("protocol-error", 1)
            ]
            audit = server.core.ledger.audit()
            assert audit["accepted"] == audit["completed"] + audit["outstanding"] == 1
            assert audit["requeues"] == 1
            assert server.protocol_errors == 1
            assert server.stats()["protocol_errors"] == 1
            await hostile.close()
            await peer.close()
            await server.stop()

        run_async(scenario())

    def test_garbage_before_registration_is_counted_and_dropped(self):
        async def scenario():
            server = await start_server()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(_framed("hello"))
            assert await asyncio.wait_for(reader.read(), 5) == b""  # closed on us
            writer.close()
            assert server.protocol_errors == 1
            assert server.core.registrations == 0 and len(server.events) == 0
            await server.stop()

        run_async(scenario())

    def test_worker_drops_a_scheduler_that_stops_speaking_the_protocol(self):
        """The worker end of the link fails the same way: it closes the
        connection and reports itself done."""

        async def scenario():
            accepted = asyncio.get_running_loop().create_future()

            async def fake_scheduler(reader, writer):
                accepted.set_result((reader, writer))

            listener = await asyncio.start_server(fake_scheduler, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            client = AsyncWorkerClient("w-0", "127.0.0.1", port, echo_executor())
            connecting = asyncio.ensure_future(client.connect())
            reader, writer = await asyncio.wait_for(accepted, 5)
            writer.write(
                encode_frame(RegisterAck(worker="w-0", epoch=1)) + _framed([1, 2])
            )
            await asyncio.wait_for(connecting, 5)
            await asyncio.wait_for(client.wait_done(), 5)
            # The worker hung up: everything it sent, then end-of-stream.
            sent = await asyncio.wait_for(reader.read(), 5)
            assert isinstance(next(FrameDecoder().feed(sent)), Register)
            await client.close()
            writer.close()
            listener.close()
            await listener.wait_closed()

        run_async(scenario())


class TestDegradeRebind:
    def test_parked_request_the_client_already_pulled_completes_once(self):
        """One worker, two requests; the second is still queued at the
        client when silence degrades the worker, so the server rebinds
        it and — with no peer — parks it.  The client had pulled the
        frame and completes both, then beats again: the flush on
        recovery must drop the finished entry, not dispatch it (which
        used to raise inside the connection handler and read as a
        crash)."""

        async def scenario():
            # Degrade after 0.1 s of silence, die only after 5 s: the
            # worker is meant to come back.
            config = SchedulerConfig(
                enabled=True,
                transport="asyncio",
                pool_size=1,
                heartbeat_interval_s=0.05,
                degraded_after_misses=2,
                dead_after_misses=100,
            )
            server = await start_server(config=config)
            hold = asyncio.Event()

            async def gated(dispatch: Dispatch, client: AsyncWorkerClient) -> dict:
                await hold.wait()
                return {"ok": True, "output": {}}

            client = await connect_worker(server, "w-0", gated)
            port = server.core.workers["w-0"]
            await wait_for(lambda: port.machine.is_dispatchable)
            first, second = request_for("a"), request_for("b")
            futures = [server.submit(first), server.submit(second)]
            await wait_for(
                lambda: first.request_id in port.executing, message="first executing"
            )
            client.suppress_heartbeats(30.0)
            await wait_for(lambda: server.core.parked == 1, message="second parked")
            assert port.machine.state is WorkerState.DEGRADED
            assert second.request_id not in port.items
            hold.set()
            results = await asyncio.wait_for(asyncio.gather(*futures), 5)
            assert all(r.ok for r in results)
            client.suppress_heartbeats(0.0)  # resume beating
            await wait_for(
                lambda: any(e.type == "scheduler.recovered" for e in server.events),
                message="worker recovered",
            )
            types = [e.type for e in server.events]
            assert "scheduler.dead" not in types
            assert types.count("scheduler.complete") == 2
            assert server.core.parked == 0 and server.core.delivered == 2
            assert server.core.ledger.audit() == {
                "accepted": 2,
                "completed": 2,
                "outstanding": 0,
                "requeues": 1,
                "suppressed": 0,
            }
            await client.close()
            await server.stop()

        run_async(scenario())


class TestDrain:
    def test_drain_hands_off_and_retires(self):
        async def scenario():
            server = await start_server()
            slow = await connect_worker(server, "w-0", echo_executor(0.01))
            peer = await connect_worker(server, "w-1", echo_executor(0.01))
            await wait_for(
                lambda: all(
                    w.machine.is_dispatchable for w in server.core.workers.values()
                )
            )
            futures = [server.submit(request_for(str(i))) for i in range(8)]
            port = server.drain("w-0")
            results = await asyncio.wait_for(asyncio.gather(*futures), 10)
            assert all(r.ok for r in results)
            await asyncio.wait_for(slow.wait_done(), 5)  # Drained handshake
            await wait_for(lambda: port.machine.is_dead, message="drained worker retired")
            assert "w-0" not in server.core.workers
            drained = [
                e
                for e in server.events
                if e.type == "scheduler.dead" and e.fields["worker"] == "w-0"
            ]
            assert drained[0].fields["reason"] == "drained"
            assert server.core.ledger.audit()["outstanding"] == 0
            with pytest.raises(SchedulingError, match="unknown worker"):
                server.drain("nope")
            await slow.close()
            await peer.close()
            await server.stop()

        run_async(scenario())


class TestHttpFrontEnd:
    @staticmethod
    async def _request(host, port, method, path, body=None, headers=None):
        import json

        reader, writer = await asyncio.open_connection(host, port)
        payload = json.dumps(body or {}).encode()
        extra = "".join(f"{key}: {value}\r\n" for key, value in (headers or {}).items())
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n{extra}"
                f"Content-Length: {len(payload)}\r\n\r\n"
            ).encode()
            + payload
        )
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head.split(b" ")[1])
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                length = int(line.partition(b":")[2])
        data = await reader.readexactly(length)
        writer.close()
        return status, json.loads(data)

    def test_concurrent_requests_flow_gateway_to_workers(self):
        from tests.helpers import listing1_platform

        platform = listing1_platform(
            scheduler=SchedulerConfig(
                enabled=True,
                transport="asyncio",
                pool_size=3,
                heartbeat_interval_s=0.25,
                degraded_after_misses=2,
                dead_after_misses=4,
            )
        )
        # The sim plane must NOT exist on the asyncio transport: the sim
        # dispatch path stays at baseline.
        assert platform.scheduler_plane is None

        async def scenario():
            front = await platform.serve_http()
            host, port = front.host, front.port
            status, body = await self._request(
                host, port, "POST", "/api/classes/Image", {"state": {"width": 2}}
            )
            assert status == 201
            object_id = body["id"]
            results = await asyncio.gather(
                *[
                    self._request(
                        host,
                        port,
                        "POST",
                        f"/api/objects/{object_id}/invokes/resize",
                        {"width": i + 1},
                    )
                    for i in range(12)
                ]
            )
            assert [status for status, _ in results] == [200] * 12
            status, listing = await self._request(host, port, "GET", "/api/workers")
            assert status == 200 and listing["count"] == 3
            assert listing["ledger"]["completed"] == 13
            status, body = await self._request(host, port, "GET", "/api/nope")
            assert status == 404 and body["type"] == "NoRouteError"
            assert await front.stop() == {"pending": 0, "parked": 0}

        run_async(scenario())
        platform.shutdown()

    def test_draining_every_worker_still_serves(self):
        """A drained worker is replaced like a crashed one: with the
        whole pool drained over HTTP the front keeps answering."""
        from tests.helpers import listing1_platform

        platform = listing1_platform(
            scheduler=SchedulerConfig(
                enabled=True,
                transport="asyncio",
                pool_size=2,
                heartbeat_interval_s=0.25,
                degraded_after_misses=2,
                dead_after_misses=4,
            )
        )

        async def scenario():
            front = await platform.serve_http()
            host, port = front.host, front.port
            status, body = await self._request(
                host, port, "POST", "/api/classes/Image", {"state": {"width": 2}}
            )
            assert status == 201
            object_id = body["id"]
            for name in ("worker-0", "worker-1"):
                status, body = await self._request(
                    host, port, "POST", f"/api/workers/{name}/drain"
                )
                assert (status, body["state"]) == (202, "DRAINING")
            status, _ = await asyncio.wait_for(
                self._request(
                    host,
                    port,
                    "POST",
                    f"/api/objects/{object_id}/invokes/resize",
                    {"width": 3},
                ),
                5,
            )
            assert status == 200
            _, listing = await self._request(host, port, "GET", "/api/workers")
            states = {w["worker"]: w["state"] for w in listing["workers"]}
            assert states == {
                "worker-2": "READY",
                "worker-3": "READY",
            }
            assert await front.stop() == {"pending": 0, "parked": 0}

        run_async(scenario())
        platform.shutdown()

    @pytest.mark.parametrize("durable", [True, False], ids=["durability-on", "durability-off"])
    def test_plane_routes_exist_over_sockets_only_while_the_plane_is_on(self, durable):
        """The real front walks the same admin chain as the sim gateway:
        the durability routes answer over sockets while the plane is on
        and are the baseline 404 when it is off."""
        from repro.durability.plane import DurabilityConfig
        from tests.helpers import listing1_platform

        platform = listing1_platform(
            scheduler=SchedulerConfig(
                enabled=True,
                transport="asyncio",
                pool_size=2,
                heartbeat_interval_s=0.25,
                degraded_after_misses=2,
                dead_after_misses=4,
            ),
            durability=DurabilityConfig(enabled=durable),
        )

        async def scenario():
            front = await platform.serve_http()
            host, port = front.host, front.port
            status, _ = await self._request(
                host, port, "POST", "/api/classes/Image", {"state": {"width": 2}}
            )
            assert status == 201
            answers = [
                await self._request(host, port, method, f"/api/classes/Image/{leaf}")
                for method, leaf in (("POST", "snapshots"), ("GET", "snapshots"), ("POST", "restore"))
            ]
            if durable:
                assert [status for status, _ in answers] == [201, 200, 200]
                assert answers[0][1]["captured"] == 1
                assert answers[1][1]["count"] == 1
                assert answers[2][1]["restored"] == 1
                # A plane's typed errors keep their status over sockets.
                status, body = await self._request(
                    host, port, "POST", "/api/classes/Image/restore", {"at": "noon"}
                )
                assert (status, body["type"]) == (400, "ValidationError")
            else:
                assert [(status, body["type"]) for status, body in answers] == [
                    (404, "NoRouteError")
                ] * 3
            assert await front.stop() == {"pending": 0, "parked": 0}

        run_async(scenario())
        platform.shutdown()

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_hostile_content_length_is_answered_400_and_closed(self, length):
        """A Content-Length that is not a count gets a typed 400 and the
        connection closes; ``run_async`` fails the test if anything
        reaches the loop's exception handler."""
        import json

        from tests.helpers import listing1_platform

        platform = listing1_platform(
            scheduler=SchedulerConfig(enabled=True, transport="asyncio", pool_size=1)
        )

        async def scenario():
            front = await platform.serve_http()
            reader, writer = await asyncio.open_connection(front.host, front.port)
            writer.write(
                f"POST /api/classes/Image HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode()
            )
            head, _, body = (await reader.read()).partition(b"\r\n\r\n")
            writer.close()
            assert head.split(b" ")[1] == b"400"
            assert json.loads(body) == {
                "error": f"malformed Content-Length {length!r}",
                "type": "ValidationError",
            }
            assert await front.stop() == {"pending": 0, "parked": 0}

        run_async(scenario())
        platform.shutdown()

    def test_input_left_unread_after_a_400_does_not_reset_the_answer(self):
        """A client that keeps sending past its malformed head reads the
        whole 400: the front half-closes and discards what still arrives
        before it closes, so unread input cannot turn the close into a
        reset that drops the answer."""
        from tests.helpers import listing1_platform

        platform = listing1_platform(
            scheduler=SchedulerConfig(enabled=True, transport="asyncio", pool_size=1)
        )

        async def scenario():
            front = await platform.serve_http()
            reader, writer = await asyncio.open_connection(front.host, front.port)
            writer.write(b"POST /api/classes/Image HTTP/1.1\r\nContent-Length: 1x\r\n\r\n")
            writer.write(b"x" * (256 * 1024))
            try:
                await writer.drain()
                answer = await asyncio.wait_for(reader.read(), 5)
            finally:
                writer.close()
            head, _, body = answer.partition(b"\r\n\r\n")
            assert head.split(b" ")[1] == b"400"
            assert json.loads(body)["type"] == "ValidationError"
            assert await front.stop() == {"pending": 0, "parked": 0}

        run_async(scenario())
        platform.shutdown()

    @pytest.mark.parametrize("stall", ["head", "body"])
    def test_a_trickling_client_is_answered_408_and_closed(self, monkeypatch, stall):
        """Slow-loris: a client that sends its head (or its declared
        body) a byte at a time never completes it; past the deadline the
        front answers 408 and closes instead of holding the connection
        and its task forever."""
        import repro.platform.httpfront as httpfront
        from tests.helpers import listing1_platform

        monkeypatch.setattr(httpfront, "_HEAD_TIMEOUT_S", 0.3, raising=False)
        monkeypatch.setattr(httpfront, "_BODY_TIMEOUT_S", 0.3, raising=False)
        platform = listing1_platform(
            scheduler=SchedulerConfig(enabled=True, transport="asyncio", pool_size=1)
        )

        async def trickle(writer):
            if stall == "body":
                writer.write(b"POST /api/classes/Image HTTP/1.1\r\nContent-Length: 64\r\n\r\n{")
            else:
                writer.write(b"GET /api/workers HTTP/1.1\r\nX-Pad: ")
            try:
                while True:
                    await asyncio.sleep(0.05)
                    writer.write(b"a")
                    await writer.drain()
            except ConnectionError:
                pass

        async def scenario():
            front = await platform.serve_http()
            reader, writer = await asyncio.open_connection(front.host, front.port)
            sender = asyncio.ensure_future(trickle(writer))
            try:
                answer = await asyncio.wait_for(reader.read(), 5)
            finally:
                sender.cancel()
                writer.close()
            head, _, body = answer.partition(b"\r\n\r\n")
            assert head.split(b" ")[1:3] == [b"408", b"Request"]
            assert json.loads(body)["type"] == "RequestTimeout"
            assert await front.stop() == {"pending": 0, "parked": 0}

        run_async(scenario())
        platform.shutdown()

    def test_a_connection_over_the_cap_is_answered_503_and_closed(self, monkeypatch):
        """Each open connection holds a task; past ``_MAX_CONNECTIONS`` a
        new one is answered 503 at once and closed unread instead of
        waiting behind idle clients, and a slot frees when its
        connection closes."""
        import repro.platform.httpfront as httpfront
        from tests.helpers import listing1_platform

        monkeypatch.setattr(httpfront, "_MAX_CONNECTIONS", 2, raising=False)
        platform = listing1_platform(
            scheduler=SchedulerConfig(enabled=True, transport="asyncio", pool_size=1)
        )

        async def scenario():
            front = await platform.serve_http()
            idle = [await asyncio.open_connection(front.host, front.port) for _ in range(2)]
            reader, writer = await asyncio.open_connection(front.host, front.port)
            try:
                answer = await asyncio.wait_for(reader.read(), 1)
            finally:
                writer.close()
            head, _, body = answer.partition(b"\r\n\r\n")
            assert head.split(b" ")[1:3] == [b"503", b"Service"]
            assert json.loads(body)["type"] == "OverloadError"
            idle.pop()[1].close()
            await wait_for(lambda: front._connections == 1, message="the closed slot")
            status, _ = await self._request(front.host, front.port, "GET", "/api/workers")
            assert status == 200
            for _, idle_writer in idle:
                idle_writer.close()
            assert await front.stop() == {"pending": 0, "parked": 0}

        run_async(scenario())
        platform.shutdown()

    def test_a_client_that_sent_a_body_past_the_cap_reads_the_whole_503(self, monkeypatch):
        """Over the cap the front answers 503 the way it answers a 400:
        it half-closes and discards what the client still sends, so a
        client whose request body is already on the wire reads the whole
        answer instead of a reset."""
        import repro.platform.httpfront as httpfront
        from tests.helpers import listing1_platform

        monkeypatch.setattr(httpfront, "_MAX_CONNECTIONS", 1, raising=False)
        platform = listing1_platform(
            scheduler=SchedulerConfig(enabled=True, transport="asyncio", pool_size=1)
        )

        async def scenario():
            front = await platform.serve_http()
            _, idle = await asyncio.open_connection(front.host, front.port)
            await wait_for(lambda: front._connections == 1, message="the idle slot")
            reader, writer = await asyncio.open_connection(front.host, front.port)
            payload = b"x" * (256 * 1024)
            writer.write(
                b"POST /api/classes/Image HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % len(payload)
                + payload
            )
            try:
                await writer.drain()
                answer = await asyncio.wait_for(reader.read(), 5)
            finally:
                writer.close()
            head, _, body = answer.partition(b"\r\n\r\n")
            assert head.split(b" ")[1:3] == [b"503", b"Service"]
            assert json.loads(body)["type"] == "OverloadError"
            idle.close()
            assert await front.stop() == {"pending": 0, "parked": 0}

        run_async(scenario())
        platform.shutdown()

    @pytest.mark.parametrize("default_origin", [None, "core"], ids=["header", "default-origin"])
    def test_an_out_of_jurisdiction_request_is_answered_451(self, default_origin):
        """The front decides a request's origin as the sim gateway does
        (``x-origin-zone``, else the default origin zone) and runs the
        federation plane's gate before it submits: a ``Sensor`` bound to
        edge-a / region-a refuses a bump from core with 451, the refusal
        counts in its jurisdiction verdict, and a bump from edge-a is
        served.  Every socket request counts in ``gateway.requests``."""
        from repro.federation.plane import FederationConfig
        from tests.helpers import make_platform
        from tests.test_federation import FED_YAML, RTT, THREE_TIER, _bump

        platform = make_platform(
            FED_YAML,
            {"f/bump": (_bump, 0.002)},
            nodes=6,
            seed=7,
            regions=("edge-a", "region-a", "core"),
            federation=FederationConfig(
                enabled=True, zones=THREE_TIER, zone_rtt_s=RTT, default_origin_zone=default_origin
            ),
            scheduler=SchedulerConfig(enabled=True, transport="asyncio", pool_size=1),
        )
        edge = {"x-origin-zone": "edge-a"}
        core = {} if default_origin else {"x-origin-zone": "core"}

        async def scenario():
            front = await platform.serve_http()
            host, port = front.host, front.port
            status, body = await self._request(
                host, port, "POST", "/api/classes/Sensor", headers=edge
            )
            assert status == 201
            bump = f"/api/objects/{body['id']}/invokes/bump"
            status, body = await self._request(host, port, "POST", bump, headers=core)
            assert (status, body["type"]) == (451, "JurisdictionError")
            assert await self._request(host, port, "POST", bump, headers=edge) == (200, {"n": 1})
            assert await front.stop() == {"pending": 0, "parked": 0}

        run_async(scenario())
        assert platform.federation.jurisdiction_rejections("Sensor") == 1
        (verdict,) = [
            v for v in platform.nfr_report()
            if (v.cls, v.requirement) == ("Sensor", "jurisdiction")
        ]
        assert not verdict.met
        assert platform.gateway.requests == 3
        platform.shutdown()

    def test_serve_http_requires_asyncio_transport(self):
        from repro.errors import ValidationError
        from tests.helpers import make_platform

        platform = make_platform(nodes=2)

        async def scenario():
            with pytest.raises(ValidationError, match="serve_http requires"):
                await platform.serve_http()

        run_async(scenario())
        platform.shutdown()
