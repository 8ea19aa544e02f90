"""The real asyncio transport for the scheduler/worker protocol.

:class:`AsyncSchedulerServer` listens on a TCP socket and drives the
same :class:`~repro.scheduler.transport.core.DispatchCore` the sim
plane uses; :class:`AsyncWorkerClient` processes connect to it and
speak the length-prefixed JSON frames from
:mod:`~repro.scheduler.transport.protocol`.  Both ends of a connection
are :class:`BufferedLink` protocols: a frame is decoded and *handled* in
the read callback that delivered its last byte — no stream, no reader
task in between.  Concurrency is real, and crashes are *connection
drops* — :meth:`AsyncWorkerClient.kill` aborts the socket without a
goodbye, which the server treats exactly like a sim crash (fence the
epoch, requeue everything the worker held, replace it).  A peer that
sends a well-framed payload that is not a message is dropped the same
way, counted in :attr:`AsyncSchedulerServer.protocol_errors`.

Fencing over reconnects
-----------------------

The server assigns each registration an **epoch** (monotone per worker
name) in :class:`~repro.scheduler.transport.protocol.RegisterAck`, and
every worker→scheduler message carries it.  When the server declares a
worker dead — connection drop, heartbeat timeout, or injected crash —
it bumps the registration's epoch *before* requeueing, so anything a
zombie connection says afterwards (a late ``complete``, a stray
heartbeat) mismatches and is dropped without touching the ledger
(counted in :attr:`AsyncSchedulerServer.fenced`).  Same-epoch
duplicates — a completion racing its own redispatch — are suppressed by
the ledger's first-completion-wins rule, emitting
``scheduler.suppressed`` exactly like the sim path.

Differences from sim are confined to what real sockets force: a
degrade/drain rebind reroutes the server's *queued view*; if the old
worker already pulled an item off the wire and executes it anyway, the
ledger delivers whichever completion lands first and suppresses the
other, so exactly-once completion still holds (execution is
at-least-once, as in any real distributed dispatch).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Awaitable, Callable

from repro.errors import SchedulingError, TransportError, ValidationError
from repro.invoker.request import InvocationRequest, InvocationResult
from repro.monitoring.events import EventLog
from repro.scheduler.state import WorkerStateMachine
from repro.scheduler.transport.core import DispatchCore, DispatchItem
from repro.scheduler.transport.protocol import (
    Complete,
    Dispatch,
    DrainCmd,
    Drained,
    Executing,
    FrameDecoder,
    Heartbeat,
    Install,
    InstallAck,
    Message,
    Ready,
    Register,
    RegisterAck,
    encode_frame,
)

__all__ = [
    "BufferedLink",
    "EVENT_CAPACITY",
    "RemoteWorker",
    "AsyncSchedulerServer",
    "AsyncWorkerClient",
]


#: One read buffer per thread: a link hands its bytes on before its loop reads again.
_READS = threading.local()


class BufferedLink(asyncio.BufferedProtocol):
    """Reads land in the thread's read buffer: a plain ``recv`` allocates
    its 256 KiB maximum on every read, which costs more than the read."""

    #: Set by ``connection_made``, which precedes every other callback.
    transport: asyncio.Transport

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def get_buffer(self, sizehint: int) -> memoryview:
        try:
            self.read_buffer: memoryview = _READS.view
        except AttributeError:
            self.read_buffer = _READS.view = memoryview(bytearray(64 * 1024))
        return self.read_buffer


class _Link(BufferedLink):
    """One end of a scheduler/worker connection: frames are decoded and
    handled in the read callback itself."""

    def __init__(self) -> None:
        self._decoder = FrameDecoder()

    def buffer_updated(self, nbytes: int) -> None:
        try:
            for message in self._decoder.feed(self.read_buffer[:nbytes]):
                if self.transport.is_closing():
                    return  # an earlier frame of this read ended the link
                self.on_message(message)
        except (TransportError, ValidationError):
            # Well-framed or not, the peer is not speaking the protocol.
            self.on_protocol_error()

    def on_message(self, message: Message) -> None:
        raise NotImplementedError

    def on_protocol_error(self) -> None:
        self.transport.close()


#: How many ``scheduler.*`` events a server keeps: the recent past, for
#: a person or a conformance replay to read — not a history.
EVENT_CAPACITY = 1024


class RemoteWorker:
    """The server's view of one connected worker registration — the
    asyncio transport's :class:`~repro.scheduler.transport.core.WorkerPort`:
    every port method is a frame down (or the end of) the connection,
    over the items the server believes the worker still holds."""

    def __init__(
        self,
        server: "AsyncSchedulerServer",
        name: str,
        epoch: int,
        transport: asyncio.Transport,
        node: str | None = None,
    ) -> None:
        self.server = server
        self.name = name
        self.epoch = epoch
        self.transport = transport
        self.node = node
        self.machine = WorkerStateMachine()
        self.installed: set[str] = set()
        #: request_id -> item the worker currently holds (queued or
        #: executing); ``executing`` marks the in-flight subset.
        self.items: dict[str, DispatchItem] = {}
        self.executing: set[str] = set()
        self.last_beat = server.now
        self.dispatched_count = 0
        self.completed_count = 0
        self.heartbeats_sent = 0

    @property
    def queue_depth(self) -> int:
        return len(self.items) - len(self.executing)

    @property
    def in_flight(self) -> set[str]:
        return self.executing

    def push(self, item: DispatchItem) -> None:
        request = item.request
        entry = self.server.core.ledger.entry(request.request_id)
        self.items[request.request_id] = item
        self.dispatched_count += 1
        self.send(
            Dispatch(
                request_id=request.request_id,
                object_id=request.object_id,
                fn_name=request.fn_name,
                epoch=item.epoch,
                seq=entry.seq if entry is not None else -1,
                cls=request.cls,
                payload=request.payload,
            )
        )

    def take_queue(self) -> list[DispatchItem]:
        queued = [
            item
            for rid, item in self.items.items()
            if rid not in self.executing
        ]
        for item in queued:
            del self.items[item.request.request_id]
        return queued

    def crash(self) -> list[DispatchItem]:
        # Fence FIRST: anything the old connection says after this
        # carries a stale epoch and is discarded.
        self.epoch += 1
        held = list(self.items.values())
        self.items.clear()
        self.executing.clear()
        return held

    def install(self, cls: str) -> None:
        self.send(Install(cls=cls))

    def begin_drain(self) -> None:
        self.send(DrainCmd())

    def release(self) -> None:
        self.transport.close()

    def send(self, message: Message) -> None:
        if not self.transport.is_closing():
            self.transport.write(encode_frame(message))


class _ServerLink(_Link):
    """The scheduler's end of one accepted connection: the first frame
    registers it, every later one is a core call."""

    def __init__(self, server: "AsyncSchedulerServer") -> None:
        super().__init__()
        self.server = server
        self.worker: RemoteWorker | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        self.server._links.add(self)

    def on_message(self, message: Message) -> None:
        if self.worker is None:
            self.worker = self.server._register(message, self.transport)
        else:
            self.server._on_message(self.worker, message)

    def on_protocol_error(self) -> None:
        self.server.protocol_errors += 1
        super().on_protocol_error()
        self._retire("protocol-error")

    def connection_lost(self, exc: Exception | None) -> None:
        self.server._links.discard(self)
        self._retire("connection-lost")

    def _retire(self, reason: str) -> None:
        # A live registration is the current one under its name (a
        # rejoin is refused until the old one is dead).
        if self.worker is not None and not self.worker.machine.is_dead:
            self.server.core.crash(self.worker.name, reason)


class AsyncSchedulerServer:
    """The scheduler side of the protocol over real asyncio sockets.

    Owns a :class:`DispatchCore` (the same state machine the sim plane
    drives), a TCP listener, and a monitor task timing the core's health
    sweep; decodes each worker message into one core call, and hands
    each submission's first completion to its callback.  Replacing a worker the
    core reports dead is up to whoever owns the worker processes: set
    ``server.core.on_worker_dead``."""

    def __init__(
        self,
        *,
        config: Any = None,
        classes: list[str] | None = None,
    ) -> None:
        # config is a SchedulerConfig; typed loosely to avoid importing
        # the plane module (which imports this package).
        from repro.scheduler.plane import SchedulerConfig

        self.config = config or SchedulerConfig(enabled=True, transport="asyncio")
        #: The same log type the sim plane narrates into (so the
        #: conformance invariants replay either), on this server's clock.
        self.events = EventLog(self, enabled=True, capacity=EVENT_CAPACITY)
        self.core = DispatchCore(clock=lambda: self.now, emit=self.events.record)
        for cls in classes or ():
            self.core.note_class(cls)
        self.fenced = 0
        #: Connections dropped for sending something that is not a
        #: protocol message.
        self.protocol_errors = 0
        self._server: asyncio.AbstractServer | None = None
        self._monitor_task: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._t0 = 0.0
        self._deliveries: dict[str, Callable[..., None]] = {}
        self._links: set[_ServerLink] = set()
        self._running = False
        self.core.on_complete = self._resolve

    # -- lifecycle ----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        self._server = await self._loop.create_server(
            lambda: _ServerLink(self), host, port
        )
        self._running = True
        self._monitor_task = asyncio.ensure_future(self._monitor())

    @property
    def port(self) -> int:
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> dict[str, int]:
        """Stop listening and report what was still pending, with the
        parked subset broken out (same contract as the sim plane)."""
        report = self.core.stop_report()
        if not self._running:
            return report
        self._running = False
        if self._monitor_task is not None:
            self._monitor_task.cancel()
        if self._server is not None:
            self._server.close()
        for link in list(self._links):
            link.transport.close()
        if self._server is not None:
            # From Python 3.12 on this waits for the connections too.
            await self._server.wait_closed()
        await asyncio.sleep(0)
        return report

    @property
    def now(self) -> float:
        """Seconds since :meth:`start`, on the event loop's clock."""
        if self._loop is None:
            return 0.0
        return self._loop.time() - self._t0

    async def _monitor(self) -> None:
        config = self.config
        while self._running:
            await asyncio.sleep(config.heartbeat_interval_s)
            if not self._running:
                return
            self.core.sweep(
                config.heartbeat_interval_s,
                config.degraded_after_misses,
                config.dead_after_misses,
            )

    # -- submission ---------------------------------------------------------

    def submit(self, request: InvocationRequest) -> "asyncio.Future[InvocationResult]":
        """Accept one invocation; the future resolves on delivery."""
        assert self._loop is not None, "server not started"
        future: asyncio.Future = self._loop.create_future()
        self.submit_with(request, lambda _, result: future.done() or future.set_result(result))
        return future

    def submit_with(self, request: InvocationRequest, deliver: Callable[..., None]) -> None:
        """Accept one invocation; ``deliver(request, result)`` gets its first completion."""
        self._deliveries[request.request_id] = deliver
        self.core.submit(request)

    def _resolve(self, request: InvocationRequest, result: InvocationResult) -> None:
        deliver = self._deliveries.pop(request.request_id, None)
        if deliver is not None:
            deliver(request, result)

    # -- connection handling -------------------------------------------------

    def _register(
        self, message: Message, transport: asyncio.Transport
    ) -> RemoteWorker | None:
        """The first frame of a connection: a registration, or a refusal
        that answers and closes (which ends the reading too)."""
        if not isinstance(message, Register):
            return self._refuse(transport, "?", "expected register first")
        name = message.worker
        if name in self.core.workers:
            return self._refuse(
                transport, name, f"worker {name!r} is already registered"
            )
        worker = RemoteWorker(self, name, 1, transport, node=message.node)
        self.core.add_worker(worker)
        self.events.record("scheduler.register", worker=name, node=worker.node)
        worker.send(
            RegisterAck(
                worker=name,
                epoch=worker.epoch,
                classes=tuple(self.core.deployed_classes()),
            )
        )
        return worker

    @staticmethod
    def _refuse(transport: asyncio.Transport, name: str, error: str) -> None:
        transport.write(encode_frame(RegisterAck(worker=name, epoch=-1, error=error)))
        transport.close()

    def _fenced(self, worker: RemoteWorker, epoch: int) -> bool:
        """Is a message from this connection speaking for a fenced past?"""
        if (
            self.core.workers.get(worker.name) is not worker
            or epoch != worker.epoch
        ):
            self.fenced += 1
            return True
        return False

    def _on_message(self, worker: RemoteWorker, message: Message) -> None:
        """One worker→scheduler message is one core call."""
        if not isinstance(
            message, (Ready, Heartbeat, InstallAck, Executing, Complete, Drained)
        ):
            return
        if self._fenced(worker, message.epoch):
            # A zombie connection the scheduler already declared dead.
            # Its items were requeued when the epoch was fenced, so even
            # a ``complete`` is dropped without touching the ledger — it
            # would wrongly close a redispatched entry — exactly like
            # the sim work loop.
            return
        if isinstance(message, Ready):
            self.core.worker_ready(worker)
        elif isinstance(message, Heartbeat):
            self.core.heartbeat(worker)
        elif isinstance(message, InstallAck):
            self.core.worker_installed(worker, message.cls)
        elif isinstance(message, Executing):
            if message.request_id in worker.items:
                worker.executing.add(message.request_id)
        elif isinstance(message, Complete):
            self._on_complete_msg(worker, message)
        else:  # Drained
            self.core.retire(worker, "drained")

    def _on_complete_msg(self, worker: RemoteWorker, message: Complete) -> None:
        item = worker.items.pop(message.request_id, None)
        worker.executing.discard(message.request_id)
        if item is not None:
            worker.completed_count += 1
            request = item.request
        else:
            # The item is no longer tracked on this port — a duplicate
            # Complete, or a queued item rebound away that the client
            # had already pulled.  The ledger still decides: first
            # completion wins, later ones emit ``scheduler.suppressed``.
            entry = self.core.ledger.entry(message.request_id)
            request = entry.request if entry is not None else None
            if request is None:
                # Settled already, forgotten since, or never accepted
                # here: there is nobody to deliver to.
                self.core.settle(worker.name, message.request_id, message.ok)
                return
        result = InvocationResult(
            request_id=request.request_id,
            cls=request.cls or "",
            object_id=request.object_id,
            fn_name=request.fn_name,
            ok=message.ok,
            output=message.output,
            error=message.error,
            error_type=message.error_type,
        )
        self.core.complete(worker.name, request, result)

    # -- the core's control surface, by the names callers know ---------------

    def drain(self, name: str) -> RemoteWorker:
        return self.core.drain(name)  # type: ignore[return-value]

    def stats(self) -> dict[str, Any]:
        return {
            **self.core.stats(),
            "fenced": self.fenced,
            "protocol_errors": self.protocol_errors,
            "events_dropped": self.events.dropped,
        }


class _ClientLink(_Link):
    """The worker's end of its one connection."""

    def __init__(self, client: "AsyncWorkerClient") -> None:
        super().__init__()
        self.client = client

    def on_message(self, message: Message) -> None:
        self.client._on_message(message)

    def connection_lost(self, exc: Exception | None) -> None:
        self.client._on_connection_lost()


class AsyncWorkerClient:
    """The worker side of the protocol: one process per worker.

    ``executor`` is a callable ``(dispatch: Dispatch, client)`` returning
    result fields (``ok``, ``output``, ``error``, ``error_type``), or an
    awaitable of them: an idle worker runs a dispatch in the read callback
    that delivered it, and only an awaitable gets a task (later dispatches
    wait behind it).  The HTTP front plugs the engine in; tests, sleeps and failures."""

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        executor: Callable[[Dispatch, "AsyncWorkerClient"], dict | Awaitable[dict]],
        *,
        heartbeat_interval_s: float = 0.5,
        node: str | None = None,
    ) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.executor = executor
        self.heartbeat_interval_s = heartbeat_interval_s
        self.node = node
        self.epoch = -1
        self.installed: set[str] = set()
        self.slow_factor = 1.0
        self.completed = 0
        self.draining = False
        self._transport: asyncio.Transport | None = None
        #: The ``executing`` of the awaitable just started, held a loop turn.
        self._held: Executing | None = None
        #: The dispatch whose awaitable runs, and those arrived behind it.
        self._in_flight: Dispatch | None = None
        self._backlog: list[Dispatch] = []
        self._tasks: set[asyncio.Task] = set()
        self._suppress_until = -1.0
        self._done = asyncio.Event()
        self._registered = asyncio.Event()
        self._register_error: str | None = None

    async def connect(self) -> None:
        """Open the connection, register (installs and ``ready`` go out in
        the ack's read callback) and start the heartbeat loop.  Raises
        ``SchedulingError`` if the scheduler rejects the registration."""
        self._transport, _ = await asyncio.get_running_loop().create_connection(
            lambda: _ClientLink(self), self.host, self.port
        )
        self._send(Register(worker=self.name, node=self.node))
        await self._registered.wait()
        if self._register_error is not None:
            await self.close()
            raise SchedulingError(self._register_error)
        self._spawn(self._heartbeat_loop())

    # -- scheduler-facing ----------------------------------------------------

    def kill(self) -> None:
        """Crash: abort the transport with no goodbye.  The scheduler
        sees a connection drop and fences this registration's epoch."""
        for task in self._tasks:
            task.cancel()
        if self._transport is not None:
            self._transport.abort()  # unlike close(): nothing buffered is sent
        self._done.set()

    async def close(self) -> None:
        """Graceful local teardown (tests); not a protocol drain."""
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._transport is not None:
            self._transport.close()
        self._done.set()

    async def wait_done(self) -> None:
        await self._done.wait()

    def suppress_heartbeats(self, duration_s: float) -> None:
        loop = asyncio.get_running_loop()
        self._suppress_until = loop.time() + duration_s

    # -- protocol loops ------------------------------------------------------

    def _send(self, message: Message) -> None:
        """Write one frame — behind the held ``executing`` if there is
        one (wire order is send order, and the two share a write), or
        instead of it when this is that item's own ``complete``."""
        transport = self._transport
        if transport is None or transport.is_closing():
            return
        held, self._held = self._held, None
        data = encode_frame(message)
        if held is not None and not (
            isinstance(message, Complete) and message.request_id == held.request_id
        ):
            data = encode_frame(held) + data
        transport.write(data)

    def _spawn(self, awaitable: Awaitable[Any]) -> None:
        task = asyncio.ensure_future(awaitable)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _flush_held(self, executing: Executing) -> None:
        if self._held is executing:
            self._held = None
            self._send(executing)

    def _on_connection_lost(self) -> None:
        if not self._registered.is_set():
            self._register_error = "connection closed during registration"
            self._registered.set()
        self._done.set()

    def _on_message(self, message: Message) -> None:
        if isinstance(message, RegisterAck):
            if message.error is not None:
                self._register_error = message.error
            else:
                self.epoch = message.epoch
                for cls in message.classes:
                    self._install(cls)
                self._send(Ready(worker=self.name, epoch=self.epoch))
            self._registered.set()
        elif isinstance(message, Dispatch):
            if not self.draining:
                self._backlog.append(message)
                self._run()
        elif isinstance(message, Install):
            self._install(message.cls)
        elif isinstance(message, DrainCmd) and not self.draining:
            self.draining = True
            # Drop queued-but-unstarted items: the scheduler rebound
            # them to peers before sending the drain.
            self._backlog.clear()
            self._run()

    def _install(self, cls: str) -> None:
        if cls not in self.installed:
            self.installed.add(cls)
            self._send(InstallAck(worker=self.name, epoch=self.epoch, cls=cls))

    async def _heartbeat_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.heartbeat_interval_s)
            if loop.time() < self._suppress_until:
                continue
            self._send(Heartbeat(worker=self.name, epoch=self.epoch))

    def _run(self) -> None:
        """Execute what arrived, in order, till an awaitable is in flight."""
        while self._in_flight is None and self._backlog:
            dispatch = self._backlog.pop(0)
            try:
                fields = self.executor(dispatch, self)
            except Exception as exc:  # an executor bug, not a protocol event
                fields = {"ok": False, "error": str(exc), "error_type": type(exc).__name__}
            if isinstance(fields, dict):
                self._complete(dispatch, fields)
                continue
            self._in_flight = dispatch
            self._spawn(self._finish(dispatch, fields))
            # ``executing`` waits a loop turn, behind the task's first step: an
            # awaitable that yields lets it out before its ``complete``; one that
            # returns at once was never seen in flight, and sends no ``executing``.
            self._held = Executing(self.name, self.epoch, dispatch.request_id)
            asyncio.get_running_loop().call_soon(self._flush_held, self._held)
        if self.draining and self._in_flight is None:
            self._send(Drained(worker=self.name, epoch=self.epoch))
            self._done.set()

    async def _finish(self, dispatch: Dispatch, pending: Awaitable[dict]) -> None:
        try:
            fields = await pending
        except Exception as exc:  # an executor bug, not a protocol event
            fields = {"ok": False, "error": str(exc), "error_type": type(exc).__name__}
        self._in_flight = None
        self._complete(dispatch, fields)
        self._run()

    def _complete(self, dispatch: Dispatch, fields: dict) -> None:
        self.completed += 1
        get = fields.get
        self._send(Complete(self.name, dispatch.epoch, dispatch.request_id, bool(get("ok", True)),
                            get("output", {}), get("error"), get("error_type")))
