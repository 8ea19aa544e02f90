"""REST-style gateway (tutorial step 5: "Developers can use CLI, REST
API, or gRPC to interact with objects").

Routes:

========  =========================================  ==================
method    path                                       action
========  =========================================  ==================
POST      /api/classes/{cls}                         create object
GET       /api/classes/{cls}/objects                 list object ids
GET       /api/classes/{cls}/objects?where=...       query objects
GET       /api/objects/{oid}                         read object
PATCH     /api/objects/{oid}                         update state
DELETE    /api/objects/{oid}                         delete object
POST      /api/objects/{oid}/invokes/{fn}            invoke function
GET       /api/objects/{oid}/files/{key}             presigned GET URL
PUT       /api/objects/{oid}/files/{key}             presigned PUT URL
POST      /api/classes/{cls}/snapshots               snapshot cut [d]
GET       /api/classes/{cls}/snapshots               list generations [d]
POST      /api/classes/{cls}/restore                 PIT restore [d]
GET       /api/workers                               list workers [s]
POST      /api/workers/{name}/drain                  drain worker [s]
POST      /api/classes/{cls}/objects/{oid}/migrate   live migration [f]
========  =========================================  ==================

Routes marked ``[d]`` exist only when the durability plane is enabled,
routes marked ``[s]`` only when the scheduler plane is enabled, and
routes marked ``[f]`` only when the federation plane is enabled;
otherwise they fall through to the usual 404 ``NoRouteError`` body, so
a baseline platform's route surface is unchanged.

With the federation plane, requests may carry an ``x-origin-zone``
header (or inherit ``FederationConfig.default_origin_zone``); the
engine then geo-routes the invocation to the nearest eligible replica
and enforces jurisdiction constraints (HTTP 451 on violation).

Responses carry HTTP-ish status codes mapped from the invocation
result's error type, so clients behave as they would against the real
platform.
"""

from __future__ import annotations

import dataclasses
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Generator, Mapping

from repro.errors import OaasError, SchedulingError, ValidationError
from repro.invoker.engine import InvocationEngine, split_object_id
from repro.invoker.request import InvocationRequest
from repro.monitoring.tracing import Tracer
from repro.qos.admission import REJECT_CONCURRENCY
from repro.qos.plane import QosPlane
from repro.sim.kernel import Environment, Process

__all__ = ["HttpRequest", "HttpResponse", "Gateway", "workers_route"]

_STATUS_BY_ERROR = {
    "UnknownObjectError": 404,
    "UnknownClassError": 404,
    "UnknownFunctionError": 404,
    "NoRouteError": 404,
    "KeyNotFoundError": 404,
    "BucketNotFoundError": 404,
    "SnapshotNotFoundError": 404,
    "ValidationError": 400,
    "PackageError": 400,
    "QueryError": 400,
    "InvocationError": 403,
    "DataflowError": 400,
    "ConcurrentModificationError": 409,
    "MigrationError": 409,
    "RateLimitedError": 429,
    "JurisdictionError": 451,
    "FunctionExecutionError": 500,
    "InvocationTimeoutError": 504,
    "NetworkPartitionError": 503,
    "TransportError": 503,
    "ServiceUnavailableError": 503,
    "OverloadError": 503,
    "StorageError": 500,
    "InternalError": 500,
}


@dataclass(frozen=True)
class HttpRequest:
    """A minimal HTTP request representation."""

    method: str
    path: str
    body: Mapping[str, Any] = field(default_factory=dict)
    #: Request headers (case-insensitive; normalised to lower-case).
    #: The federation plane reads ``x-origin-zone`` for geo-routing.
    headers: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", self.method.upper())
        object.__setattr__(self, "body", dict(self.body))
        object.__setattr__(
            self, "headers", {k.lower(): v for k, v in dict(self.headers).items()}
        )


@dataclass(frozen=True)
class HttpResponse:
    """A minimal HTTP response representation."""

    status: int
    body: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", dict(self.body))

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def workers_route(core: Any, http: HttpRequest) -> HttpResponse | None:
    """The worker-pool admin routes over a
    :class:`~repro.scheduler.transport.core.DispatchCore` — the sim
    gateway's (scheduler plane on) and the asyncio HTTP front's."""
    parts = [p for p in http.path.split("/") if p]
    if len(parts) < 2 or parts[0] != "api" or parts[1] != "workers":
        return None
    if len(parts) == 2 and http.method == "GET":
        workers = core.describe_workers()
        return HttpResponse(
            200,
            {"workers": workers, "count": len(workers), "ledger": core.ledger.audit()},
        )
    if len(parts) == 4 and parts[3] == "drain" and http.method == "POST":
        name = parts[2]
        try:
            worker = core.drain(name)
        except SchedulingError as exc:
            status = 404 if "unknown worker" in str(exc) else 409
            return HttpResponse(status, {"error": str(exc), "type": "SchedulingError"})
        return HttpResponse(202, {"worker": name, "state": worker.machine.state.value})
    return None


class Gateway:
    """Translates REST calls into invocation requests."""

    def __init__(
        self,
        env: Environment,
        engine: InvocationEngine,
        overhead_s: float = 0.0002,
        tracer: Tracer | None = None,
        qos: QosPlane | None = None,
        durability: Any | None = None,
        scheduler: Any | None = None,
        federation: Any | None = None,
    ) -> None:
        self.env = env
        self.engine = engine
        self.overhead_s = overhead_s
        # Explicit None check: an empty Tracer is falsy (it has __len__).
        self.tracer = tracer if tracer is not None else Tracer(env)
        self.qos = qos
        self.durability = durability
        self.scheduler = scheduler
        self.federation = federation
        self.requests = 0
        self.rejected = 0

    def handle(self, request: HttpRequest) -> Process:
        """Process one HTTP request; resolves to an :class:`HttpResponse`."""
        return self.env.process(self._handle(request))

    async def serve_http(self, platform: Any, *, host: str = "127.0.0.1", port: int = 0):
        """Serve this gateway's route table over a real asyncio HTTP
        front end, with invocations flowing through the asyncio
        scheduler transport to a worker pool over TCP.  Requires
        ``SchedulerConfig(enabled=True, transport="asyncio")``."""
        from repro.platform.httpfront import AsyncPlatformServer

        front = AsyncPlatformServer(platform, host=host, port=port)
        await front.start()
        return front

    def _handle(self, http: HttpRequest) -> Generator[Any, Any, HttpResponse]:
        self.requests += 1
        try:
            return (yield from self._handle_inner(http))
        except OaasError as exc:
            # Defensive boundary: platform errors raised outside the
            # engine (routing, listing) still produce structured payloads.
            status = _STATUS_BY_ERROR.get(type(exc).__name__, 500)
            return HttpResponse(status, {"error": str(exc), "type": type(exc).__name__})
        except Exception as exc:  # noqa: BLE001 - the REST boundary
            return HttpResponse(
                500,
                {
                    "error": f"internal platform error: {type(exc).__name__}: {exc}",
                    "type": "InternalError",
                },
            )

    def _handle_inner(self, http: HttpRequest) -> Generator[Any, Any, HttpResponse]:
        admin = self._storage_route(http)
        if admin is None:
            admin = self._durability_route(http)
        if admin is None and self.scheduler is not None:
            admin = workers_route(self.scheduler.core, http)
        if admin is None:
            admin = self._federation_route(http)
        if admin is not None:
            if self.overhead_s:
                yield self.env.timeout(self.overhead_s)
            if isinstance(admin, HttpResponse):
                return admin
            return (yield from admin)
        invocation = self._route(http)
        if self.federation is not None and isinstance(invocation, InvocationRequest):
            origin = (
                http.headers.get("x-origin-zone")
                or self.federation.config.default_origin_zone
            )
            if origin is not None:
                invocation = dataclasses.replace(invocation, origin_zone=origin)
        admitted = False
        if isinstance(invocation, InvocationRequest) and self.qos is not None:
            # Admission runs before any overhead is spent: a rejected
            # request costs the platform (almost) nothing, which is what
            # makes declared throughput enforceable under flood.
            cls = invocation.cls or split_object_id(invocation.object_id)[0]
            decision = self.qos.admit_http(cls)
            if not decision.admitted:
                self.rejected += 1
                # Per-class rate refusals are the client's fault (429);
                # a full platform ceiling is the platform's (503).
                if decision.reason == REJECT_CONCURRENCY:
                    status, error_type = 503, "OverloadError"
                else:
                    status, error_type = 429, "RateLimitedError"
                return HttpResponse(
                    status,
                    {
                        "error": (
                            f"admission rejected ({decision.reason}) for "
                            f"class {decision.cls or '?'}"
                        ),
                        "type": error_type,
                        "retry_after_s": round(decision.retry_after_s, 6),
                    },
                )
            admitted = True
        try:
            span = None
            if self.tracer.enabled and isinstance(invocation, InvocationRequest):
                trace_id = invocation.trace_id or invocation.request_id
                span = self.tracer.start(
                    trace_id,
                    f"gateway {http.method} {http.path}",
                    parent=invocation.trace_parent,
                )
                invocation = dataclasses.replace(
                    invocation, trace_id=trace_id, trace_parent=span.span_id
                )
            if self.overhead_s:
                yield self.env.timeout(self.overhead_s)
            if invocation is None:
                return HttpResponse(
                    404,
                    {
                        "error": f"no route {http.method} {http.path}",
                        "type": "NoRouteError",
                    },
                )
            if isinstance(invocation, HttpResponse):
                return invocation
            result = yield from self.engine.invoke_steps(invocation)
            if result.ok:
                status = 201 if invocation.fn_name == "new" else 200
                body: dict[str, Any] = dict(result.output)
                if result.created_object_id is not None:
                    body.setdefault("id", result.created_object_id)
                self.tracer.finish(span, status=status)
                return HttpResponse(status, body)
            status = _STATUS_BY_ERROR.get(result.error_type or "", 500)
            self.tracer.finish(span, status=status)
            return HttpResponse(status, {"error": result.error, "type": result.error_type})
        finally:
            if admitted:
                self.qos.release_http()

    def _durability_route(
        self, http: HttpRequest
    ) -> Generator | HttpResponse | None:
        """Durability admin routes, live only when the plane is wired.

        Returns ``None`` (fall through to the usual routing — and so the
        baseline 404 ``NoRouteError``) when the plane is off or the path
        does not match."""
        if self.durability is None:
            return None
        parts = [p for p in http.path.split("/") if p]
        if len(parts) != 4 or parts[0] != "api" or parts[1] != "classes":
            return None
        cls = parts[2]
        if parts[3] == "snapshots":
            if http.method == "POST":
                return self._snapshot_class(cls)
            if http.method == "GET":
                generations = self.durability.generations(cls)
                return HttpResponse(
                    200,
                    {"class": cls, "generations": generations, "count": len(generations)},
                )
            return None
        if parts[3] == "restore" and http.method == "POST":
            return self._restore_class(cls, http.body)
        return None

    def _snapshot_class(self, cls: str) -> Generator[Any, Any, HttpResponse]:
        manifest = yield self.durability.snapshot_class(cls)
        if manifest is None:
            return HttpResponse(
                200, {"class": cls, "generation": None, "captured": 0}
            )
        return HttpResponse(
            201,
            {
                "class": cls,
                "generation": manifest["generation"],
                "captured": len(manifest["captured"]),
                "cut_time": manifest["cut_time"],
            },
        )

    def _restore_class(
        self, cls: str, body: Mapping[str, Any]
    ) -> Generator[Any, Any, HttpResponse]:
        at = body.get("at")
        if at is not None:
            if isinstance(at, bool) or not isinstance(at, (int, float)):
                raise ValidationError(f"restore 'at' must be a number, got {at!r}")
            at = float(at)
        object_id = body.get("object")
        if object_id is not None:
            summary = yield self.durability.restore_object(cls, str(object_id), at)
        else:
            summary = yield self.durability.restore_class(cls, at)
        return HttpResponse(200, dict(summary))

    def _federation_route(
        self, http: HttpRequest
    ) -> Generator | HttpResponse | None:
        """Live-migration admin route, live only when the federation
        plane is wired; otherwise fall through to the baseline 404."""
        if self.federation is None:
            return None
        parts = [p for p in http.path.split("/") if p]
        if (
            len(parts) != 6
            or parts[0] != "api"
            or parts[1] != "classes"
            or parts[3] != "objects"
            or parts[5] != "migrate"
            or http.method != "POST"
        ):
            return None
        return self._migrate_object(parts[2], parts[4], http.body)

    def _migrate_object(
        self, cls: str, object_id: str, body: Mapping[str, Any]
    ) -> Generator[Any, Any, HttpResponse]:
        zone = body.get("zone")
        if not zone or not isinstance(zone, str):
            raise ValidationError(
                "migrate requires a target 'zone' (string) in the body"
            )
        summary = yield self.federation.migrate_object(cls, object_id, zone)
        return HttpResponse(200, dict(summary))

    def _storage_route(
        self, http: HttpRequest
    ) -> Generator | HttpResponse | None:
        """The object-query surface: ``GET /api/classes/{cls}/objects``
        with a query string.

        Only paths carrying a ``?`` are considered, so a platform that
        never queries sees the exact route behavior it always had (the
        plain objects listing keeps its historical route in
        :meth:`_route`).
        """
        if "?" not in http.path:
            return None
        path, _, query_string = http.path.partition("?")
        parts = [p for p in path.split("/") if p]
        if (
            len(parts) != 4
            or parts[0] != "api"
            or parts[1] != "classes"
            or parts[3] != "objects"
            or http.method != "GET"
        ):
            return None
        params = dict(urllib.parse.parse_qsl(query_string, keep_blank_values=True))
        return self._query_objects_route(parts[2], params)

    def _query_objects_route(
        self, cls: str, params: Mapping[str, str]
    ) -> Generator[Any, Any, HttpResponse]:
        from repro.storage.query import parse_query

        resolved = self.engine.directory.resolved(cls)
        schema = {
            spec.name: spec.dtype for spec in resolved.state if not spec.is_file
        }
        query = parse_query(params, schema)
        result = yield self.engine.query_objects(cls, query)
        body: dict[str, Any] = {
            "class": cls,
            "objects": result.docs,
            "count": len(result.docs),
            "scanned": result.scanned,
            "cursor": result.next_cursor,
        }
        if params.get("explain"):
            body["plan"] = result.plan
            body["index_used"] = result.index_used
        return HttpResponse(200, body)

    def _route(self, http: HttpRequest) -> InvocationRequest | HttpResponse | None:
        parts = [p for p in http.path.split("/") if p]
        if len(parts) < 2 or parts[0] != "api":
            return None
        if parts[1] == "classes" and len(parts) == 3 and http.method == "POST":
            return InvocationRequest(object_id="", fn_name="new", cls=parts[2], payload=http.body)
        if (
            parts[1] == "classes"
            and len(parts) == 4
            and parts[3] == "objects"
            and http.method == "GET"
        ):
            from repro.errors import UnknownClassError

            try:
                ids = self.engine.list_objects(parts[2])
            except UnknownClassError as exc:
                return HttpResponse(404, {"error": str(exc)})
            return HttpResponse(200, {"objects": ids, "count": len(ids)})
        if parts[1] != "objects" or len(parts) < 3:
            return None
        object_id = parts[2]
        if len(parts) == 3:
            if http.method == "GET":
                return InvocationRequest(object_id=object_id, fn_name="get")
            if http.method == "PATCH":
                return InvocationRequest(object_id=object_id, fn_name="update", payload=http.body)
            if http.method == "DELETE":
                return InvocationRequest(object_id=object_id, fn_name="delete")
            return HttpResponse(405, {"error": f"{http.method} not allowed on objects"})
        if len(parts) == 5 and parts[3] == "invokes" and http.method == "POST":
            return InvocationRequest(object_id=object_id, fn_name=parts[4], payload=http.body)
        if len(parts) == 5 and parts[3] == "files":
            if http.method in ("GET", "PUT"):
                return InvocationRequest(
                    object_id=object_id,
                    fn_name="file-url",
                    payload={"key": parts[4], "method": http.method},
                )
            return HttpResponse(405, {"error": f"{http.method} not allowed on files"})
        return None
