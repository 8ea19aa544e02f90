"""A real asyncio HTTP front end over the asyncio scheduler transport.

:class:`AsyncPlatformServer` is what ``SchedulerConfig(transport=
"asyncio")`` buys: a minimal HTTP/1.1 server whose requests flow
**gateway route → scheduler → worker** across event-loop tasks, with
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
import contextlib
import json
from http import HTTPStatus
from typing import TYPE_CHECKING, Any

from repro.errors import OaasError, ValidationError
from repro.invoker.request import InvocationRequest
from repro.platform.gateway import (
    HttpRequest,
    HttpResponse,
    error_response,
    no_route,
    result_response,
)
from repro.scheduler.transport.aio import AsyncSchedulerServer, AsyncWorkerClient
from repro.scheduler.transport.core import workers_route
from repro.scheduler.transport.protocol import Dispatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platform.oparaca import Oparaca

__all__ = ["AsyncPlatformServer"]

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024
#: Seconds a connection may take to deliver a request's head (idle
#: keep-alive included), then its declared body; past either it is
#: answered 408 and closed, so a client trickling bytes holds no task.
_HEAD_TIMEOUT_S = 30.0
_BODY_TIMEOUT_S = 30.0
#: After a 400, a 408 or an over-cap 503 the front half-closes and
#: discards what the client still sends, until it closes or this many
#: seconds pass: a close with input left unread resets the connection,
#: and the reset can drop the answer before the client reads it.
_LINGER_S = 2.0
#: Open connections served at once; one past it is answered 503 and
#: closed like a 400 (lingering at most ``_LINGER_S``), so idle
#: keep-alive clients cannot pile up tasks.
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
        self._connections = 0
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
        self._http_server = await asyncio.start_server(
            self._handle_connection, self.host, self.requested_port
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

    async def _execute(
        self, dispatch: Dispatch, worker: AsyncWorkerClient
    ) -> dict[str, Any]:
        """Worker executor: drive the platform's real engine.

        The ``platform.run`` call advances the shared sim kernel with no
        ``await`` inside, so cooperative scheduling cannot interleave
        two engine runs — concurrency lives in the sockets and queues
        around it.
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

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._connections >= _MAX_CONNECTIONS:
            full = HttpResponse(503, {"error": "too many connections", "type": "OverloadError"})
            with contextlib.closing(writer), contextlib.suppress(ConnectionError):
                await self._answer_and_close(reader, writer, full)
            return
        self._connections += 1
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ValidationError as exc:
                    # Past a malformed header the stream has no known
                    # framing: answer 400, then close.
                    await self._answer_and_close(
                        reader, writer, error_response(type(exc).__name__, str(exc))
                    )
                    return
                except TimeoutError:
                    await self._answer_and_close(
                        reader,
                        writer,
                        HttpResponse(
                            408,
                            {"error": "request not received in time", "type": "RequestTimeout"},
                        ),
                    )
                    return
                if request is None:
                    return
                response = await self._respond(request)
                self._write_response(writer, response)
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections -= 1
            writer.close()

    async def _answer_and_close(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        response: HttpResponse,
    ) -> None:
        """Send the last answer of a connection, then linger: half-close
        and discard input until the client closes or ``_LINGER_S``
        passes.  The caller closes the connection."""
        self._write_response(writer, response)
        await writer.drain()
        writer.write_eof()
        try:
            async with asyncio.timeout(_LINGER_S):
                while await reader.read(_MAX_HEADER_BYTES):
                    pass
        except TimeoutError:
            pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> HttpRequest | None:
        # One timer per request: the head's deadline, moved once for the
        # body.  ``TimeoutError`` when either is missed.
        async with asyncio.timeout(_HEAD_TIMEOUT_S) as deadline:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                return None
            if len(head) > _MAX_HEADER_BYTES:
                return None
            lines = head.decode("latin-1").split("\r\n")
            parts = lines[0].split(" ")
            if len(parts) < 2:
                return None
            method, path = parts[0].upper(), parts[1]
            headers = {}
            for line in lines[1:]:
                if ":" in line:
                    key, _, value = line.partition(":")
                    headers[key.strip().lower()] = value.strip()
            declared = headers.get("content-length", "0") or "0"
            if not declared.isdecimal():
                raise ValidationError(f"malformed Content-Length {declared!r}")
            length = int(declared)
            if length > _MAX_BODY_BYTES:
                return None
            body: dict[str, Any] = {}
            if length:
                deadline.reschedule(asyncio.get_running_loop().time() + _BODY_TIMEOUT_S)
                raw = await reader.readexactly(length)
                try:
                    parsed = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    parsed = None
                if isinstance(parsed, dict):
                    body = parsed
        return HttpRequest(method, path, body, headers)

    async def _respond(self, http: HttpRequest) -> HttpResponse:
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
        if origin is not None:
            # The worker sees no origin, so the federation plane's gate
            # runs here; geo-routing over sockets is not modelled.
            routed.stamp(origin)
            try:
                self.platform.engine.admit_origin(routed)
            except OaasError as exc:
                return error_response(type(exc).__name__, str(exc))
        return result_response(routed, await self.scheduler.submit(routed))

    def _write_response(
        self, writer: asyncio.StreamWriter, response: HttpResponse
    ) -> None:
        payload = json.dumps(response.body, sort_keys=True).encode("utf-8")
        head = (
            f"HTTP/1.1 {response.status} {_REASONS[response.status]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: keep-alive\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + payload)

    def on_deploy(self, cls: str) -> None:
        """Platform hook: a deploy while serving installs everywhere."""
        self.scheduler.on_deploy(cls)


#: Every standard status's reason phrase, for the status line.
_REASONS = {status.value: status.phrase for status in HTTPStatus}
