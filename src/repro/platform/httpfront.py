"""A real asyncio HTTP front end over the asyncio scheduler transport.

:class:`AsyncPlatformServer` is what ``SchedulerConfig(transport=
"asyncio")`` buys: a minimal HTTP/1.1 server whose requests flow
**gateway route → scheduler → worker** through read callbacks, with
each worker an :class:`~repro.scheduler.transport.aio.AsyncWorkerClient`
connected to an
:class:`~repro.scheduler.transport.aio.AsyncSchedulerServer` over TCP.
Routing reuses the sim gateway's route table and admin chain verbatim
(:meth:`Gateway._route`, :meth:`Gateway.admin_route`) so the HTTP
surface is identical, plane routes included; execution
reuses the platform's real invocation engine (each worker drives
``platform.run(engine.invoke(...))`` for its dispatches).

This is deliberately dependency-free HTTP — request line, headers,
``Content-Length`` JSON body, keep-alive — enough to serve concurrent
real clients (curl, load generators, the ``ocli serve`` demo) without
pulling a web framework into the container.
"""

from __future__ import annotations

import asyncio
import json
from http import HTTPStatus
from typing import TYPE_CHECKING, Any

from repro.errors import OaasError, ValidationError
from repro.invoker.request import InvocationRequest, InvocationResult
from repro.platform.gateway import (
    HttpRequest,
    HttpResponse,
    error_response,
    no_route,
    result_response,
)
from repro.scheduler.transport.aio import AsyncSchedulerServer, AsyncWorkerClient, BufferedLink
from repro.scheduler.transport.core import request_class, workers_route
from repro.scheduler.transport.protocol import Dispatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platform.oparaca import Oparaca

__all__ = ["AsyncPlatformServer"]

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024
#: Seconds a connection may take to deliver a request's head (idle
#: keep-alive included), then its declared body; past either it is
#: answered 408 and closed, so a client trickling bytes cannot hold it.
_HEAD_TIMEOUT_S = 30.0
_BODY_TIMEOUT_S = 30.0
#: After a 400, a 408 or an over-cap 503 the front half-closes and
#: discards what the client still sends, until it closes or this many
#: seconds pass: a close with input left unread resets the connection,
#: and the reset can drop the answer before the client reads it.
_LINGER_S = 2.0
#: Open connections served at once; one past it is answered 503 and
#: closed like a 400 (lingering at most ``_LINGER_S``), so idle
#: keep-alive clients cannot pile up.
_MAX_CONNECTIONS = 512


class AsyncPlatformServer:
    """Serve the platform's REST surface over real asyncio sockets."""

    def __init__(
        self,
        platform: "Oparaca",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        config = platform.config.scheduler
        if not config.enabled or config.transport != "asyncio":
            raise ValidationError(
                "serve_http requires SchedulerConfig(enabled=True, "
                'transport="asyncio")'
            )
        self.platform = platform
        self.host = host
        self.requested_port = port
        self.scheduler = AsyncSchedulerServer(
            config=config, classes=list(platform.crm.runtimes)
        )
        #: name -> the client of each live worker this front spawned; a
        #: retired worker's client is closed and dropped.
        self.workers: dict[str, AsyncWorkerClient] = {}
        self._connections = 0  # served, so not those answered 503 over the cap
        self._links: set[_HttpLink] = set()
        self._http_server: asyncio.AbstractServer | None = None
        self._next_worker = 0
        self._running = False
        self._spawn_tasks: set[asyncio.Task] = set()
        self.scheduler.core.on_worker_dead = self._on_worker_dead

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Start the scheduler server, the worker pool, and the HTTP
        listener; returns once the pool is serving."""
        self._running = True
        await self.scheduler.start(self.host, 0)
        for _ in range(self.platform.config.scheduler.pool_size):
            await self._spawn_worker()
        await self._wait_serving()
        self._http_server = await asyncio.get_running_loop().create_server(
            lambda: _HttpLink(self), self.host, self.requested_port
        )

    @property
    def port(self) -> int:
        assert self._http_server is not None and self._http_server.sockets
        return self._http_server.sockets[0].getsockname()[1]

    async def stop(self) -> dict[str, int]:
        self._running = False
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()
        for link in list(self._links):
            link.transport.close()
        for task in self._spawn_tasks:
            task.cancel()
        await asyncio.gather(*self._spawn_tasks, return_exceptions=True)
        for worker in self.workers.values():
            await worker.close()
        return await self.scheduler.stop()

    # -- worker pool --------------------------------------------------------

    async def _spawn_worker(self) -> AsyncWorkerClient:
        name = f"worker-{self._next_worker}"
        self._next_worker += 1
        worker = AsyncWorkerClient(
            name,
            self.host,
            self.scheduler.port,
            self._execute,
            heartbeat_interval_s=self.platform.config.scheduler.heartbeat_interval_s,
        )
        await worker.connect()
        self.workers[name] = worker
        return worker

    def _on_worker_dead(self, worker: Any, reason: str) -> None:
        """Self-heal: while the front runs, a worker that crashed or
        finished draining has its client closed and is replaced."""
        if self._running:
            client = self.workers.pop(worker.name, None)
            if client is not None:
                client.kill()  # the registration is retired: no goodbye is owed
            task = asyncio.ensure_future(self._spawn_worker())
            self._spawn_tasks.add(task)
            task.add_done_callback(self._spawn_tasks.discard)

    async def _wait_serving(self, timeout_s: float = 5.0) -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while loop.time() < deadline:
            serving = sum(
                1
                for worker in self.scheduler.core.workers.values()
                if worker.machine.is_dispatchable
            )
            if serving >= self.platform.config.scheduler.pool_size:
                return
            await asyncio.sleep(0.01)
        raise ValidationError("worker pool failed to become ready")

    def _execute(self, dispatch: Dispatch, worker: AsyncWorkerClient) -> dict[str, Any]:
        """Worker executor: drive the platform's real engine.

        The ``platform.run`` call advances the shared sim kernel with no
        ``await`` inside, so cooperative scheduling cannot interleave
        two engine runs — concurrency lives in the sockets around it.
        """
        request = InvocationRequest(
            object_id=dispatch.object_id,
            fn_name=dispatch.fn_name,
            cls=dispatch.cls,
            payload=dispatch.payload,
        )
        result = self.platform.run(self.platform.engine.invoke(request))
        output = dict(result.output)
        if result.created_object_id is not None:
            output.setdefault("id", result.created_object_id)
        return {
            "ok": result.ok,
            "output": output,
            "error": result.error,
            "error_type": result.error_type,
        }

    # -- HTTP ---------------------------------------------------------------

    def _respond(self, http: HttpRequest, link: "_HttpLink") -> HttpResponse | None:
        """The answer, or ``None``: a worker's result goes to ``link.finish``."""
        gateway = self.platform.gateway
        gateway.requests += 1
        routed = gateway._route(http)
        if routed is None:
            # This front's own worker pool first, then the gateway's
            # admin chain (object query + every plane's routes).
            admin = workers_route(self.scheduler.core, http) or gateway.admin_route(http)
            if admin is None:
                return no_route(http)
            if isinstance(admin, HttpResponse):
                return admin
            # Admin routes are sim generators; drive them on the shared
            # kernel like the workers drive invocations (no await inside,
            # so engine runs cannot interleave).
            try:
                return self.platform.run(admin)
            except OaasError as exc:
                return error_response(type(exc).__name__, str(exc))
        if isinstance(routed, HttpResponse):
            return routed
        origin = gateway.origin(http)
        try:
            if origin is not None:
                # The worker sees no origin, so the federation plane's gate
                # runs here; geo-routing over sockets is not modelled.
                routed.stamp(origin)
                self.platform.engine.admit_origin(routed)
            cls = request_class(routed)
            if cls is not None:  # answered typed: parked, it would wait for good
                self.platform.crm.runtime(cls)
        except OaasError as exc:
            return error_response(type(exc).__name__, str(exc))
        link.busy = True
        self.scheduler.submit_with(routed, link.finish)
        return None

    def class_changed(self, cls: str, runtime: Any | None) -> None:
        self.scheduler.core.class_changed(cls, runtime)


#: Each status's line and fixed headers, up to its length.
_HEADS = {s.value: b"HTTP/1.1 %d %s\r\nContent-Type: application/json\r\nContent-Length: "
          % (s.value, s.phrase.encode("latin-1")) for s in HTTPStatus}
_ENCODE = json.JSONEncoder(sort_keys=True).encode  # json.dumps(..., sort_keys=True), one encoder


class _HttpLink(BufferedLink):
    """One HTTP connection: a request is parsed, routed and answered in the
    read callback that completes it (or that brings its worker's result)."""

    #: (method, path, headers, body offset, body length): a head whose body is not all in.
    head: tuple[str, str, dict[str, str], int, int] | None = None
    # busy: a request is with a worker; blocked: the peer reads no answers.
    busy = blocked = lingering = eof = False
    #: Watches the connection's one deadline, a float moved per request.
    timer: asyncio.TimerHandle | None = None

    def __init__(self, front: AsyncPlatformServer) -> None:
        self.front, self.counted = front, front._connections < _MAX_CONNECTIONS
        self.buffer = bytearray()  # extended in place: a body in many reads stays linear

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        self.front._links.add(self)
        if not self.counted:
            error = {"error": "too many connections", "type": "OverloadError"}
            return self._close_with(HttpResponse(503, error))
        self.front._connections += 1
        self._wait(_HEAD_TIMEOUT_S)

    def connection_lost(self, exc: Exception | None) -> None:
        if self.timer is not None:
            self.timer.cancel()
        self.front._connections -= self.counted
        self.front._links.discard(self)

    def buffer_updated(self, nbytes: int) -> None:
        if not self.lingering:  # a lingering link discards what arrives
            self.buffer += self.read_buffer[:nbytes]
            self._serve()

    def eof_received(self) -> bool:
        self.eof = True  # half-closed: a request in flight is still answered
        return not self.lingering and (self.busy or self.blocked)

    def pause_writing(self) -> None:
        self.blocked = True

    def resume_writing(self) -> None:
        self.blocked = False
        self._serve()

    def finish(self, request: InvocationRequest, result: InvocationResult) -> None:
        """The scheduler's delivery of the request in flight."""
        self.busy = False
        if not self.transport.is_closing():
            self._answer(result_response(request, result))
            if self.buffer or self.eof:  # not in the scheduler link's callback
                asyncio.get_running_loop().call_soon(self._serve)

    def _serve(self) -> None:
        """Answer what is buffered, in order, till a worker has one or writes back up."""
        while not self.lingering:
            if self.busy or self.blocked:
                if self.buffer:
                    self.transport.pause_reading()
                return
            request = self._parse()
            if request is None:
                return self.transport.close() if self.eof else self.transport.resume_reading()
            response = self.front._respond(request, self)
            if response is not None:
                self._answer(response)

    def _parse(self) -> HttpRequest | None:
        """The next complete request; ``None`` if not all in, or answered 400 / closed."""
        buffer = self.buffer
        if self.head is None:
            end = buffer.find(b"\r\n\r\n", 0, _MAX_HEADER_BYTES)
            if end < 0:
                if len(buffer) >= _MAX_HEADER_BYTES:
                    self.transport.close()  # a head past the cap
                return None
            lines = buffer[:end].decode("latin-1").split("\r\n")
            parts = lines[0].split(" ")
            if len(parts) < 2:
                return self.transport.close()  # no request line
            headers = {}
            for line in lines[1:]:
                if ":" in line:
                    key, _, value = line.partition(":")
                    headers[key.strip().lower()] = value.strip()
            declared = headers.get("content-length", "0") or "0"
            if not declared.isdecimal():
                # Past a malformed header the stream has no known framing.
                message = f"malformed Content-Length {declared!r}"
                return self._close_with(error_response("ValidationError", message))
            if int(declared) > _MAX_BODY_BYTES:
                return self.transport.close()
            self.head = (parts[0].upper(), parts[1], headers, end + 4, int(declared))
            if len(buffer) < end + 4 + int(declared):
                self._wait(_BODY_TIMEOUT_S)
        method, path, headers, start, length = self.head
        if len(buffer) < start + length:
            return None
        self.head, self.buffer = None, buffer[start + length:]
        try:
            body = json.loads(buffer[start:start + length].decode("utf-8")) if length else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            body = None
        return HttpRequest(method, path, body if isinstance(body, dict) else {}, headers)

    def _answer(self, response: HttpResponse) -> None:
        payload = _ENCODE(response.body).encode("utf-8")
        self.transport.write(
            b"%s%d\r\nConnection: keep-alive\r\n\r\n%s"
            % (_HEADS[response.status], len(payload), payload)
        )
        self._wait(_HEAD_TIMEOUT_S)  # idle keep-alive counts against the next head

    def _close_with(self, response: HttpResponse) -> None:
        """Answer, then linger: half-close, discard input till EOF or ``_LINGER_S``."""
        self._answer(response)
        self.transport.write_eof()
        self.transport.resume_reading()
        self.lingering, self.buffer = True, bytearray()
        self._wait(_LINGER_S)

    def _wait(self, seconds: float) -> None:
        """Move the deadline; re-arm the timer only if it would fire late."""
        loop = asyncio.get_running_loop()
        self.deadline = loop.time() + seconds
        if self.timer is None or self.timer.when() > self.deadline:
            if self.timer is not None:
                self.timer.cancel()
            self.timer = loop.call_at(self.deadline, self._expire)

    def _expire(self) -> None:
        self.timer, early = None, self.deadline - asyncio.get_running_loop().time()
        if self.busy or self.transport.is_closing():
            return  # no deadline while a worker has the request
        if early > 0:
            self._wait(early)
        elif self.lingering:
            self.transport.close()
        else:
            error = {"error": "request not received in time", "type": "RequestTimeout"}
            self._close_with(HttpResponse(408, error))
