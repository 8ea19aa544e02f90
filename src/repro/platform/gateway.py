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

Routes marked ``[d]`` / ``[s]`` / ``[f]`` belong to the durability /
scheduler / federation plane (its ``admin_route``) and exist only while
that plane is enabled; otherwise they fall through to the usual 404
``NoRouteError`` body, so a baseline platform's route surface is
unchanged.  The invocation routes are matched first and the admin chain
(the object query, then each plane in registry order) is walked only
for a request they do not know, so an invocation never pays for it and
a plane route cannot shadow an invocation route.

With the federation plane, requests may carry an ``x-origin-zone``
header (or inherit ``FederationConfig.default_origin_zone``); the
engine then geo-routes the invocation to the nearest eligible replica
and enforces jurisdiction constraints (HTTP 451 on violation).

Responses carry HTTP-ish status codes mapped from the invocation
result's error type, so clients behave as they would against the real
platform.
"""

from __future__ import annotations

import urllib.parse
from typing import Any, Generator, Mapping

from repro.errors import OaasError, UnknownClassError
from repro.http import HttpRequest, HttpResponse
from repro.invoker.engine import InvocationEngine, split_object_id
from repro.invoker.request import InvocationRequest, InvocationResult
from repro.monitoring.tracing import Tracer
from repro.plane import Plane
from repro.qos.admission import REJECT_CONCURRENCY
from repro.qos.plane import QosPlane
from repro.sim.kernel import Environment, Process
from repro.storage.query import parse_query

__all__ = [
    "HttpRequest", "HttpResponse", "Gateway", "error_response", "no_route", "result_response"
]

#: Simulated seconds of gateway processing charged to every request.
GATEWAY_OVERHEAD_S = 0.0002

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


#: Gateway span names are route templates, so their number does not grow
#: with the objects addressed: the class or object id is an attribute.
#: ``_route`` sets ``cls`` only on the create route; the object routes
#: are told apart by method and, for GET / PUT, by the file-URL builtin.
_CREATE_SPAN = "gateway POST /api/classes/{cls}"
_OBJECT_SPANS = {
    ("POST", False): "gateway POST /api/objects/{oid}/invokes/{fn}",
    ("POST", True): "gateway POST /api/objects/{oid}/invokes/{fn}",
    ("GET", False): "gateway GET /api/objects/{oid}",
    ("PATCH", False): "gateway PATCH /api/objects/{oid}",
    ("DELETE", False): "gateway DELETE /api/objects/{oid}",
    ("GET", True): "gateway GET /api/objects/{oid}/files/{key}",
    ("PUT", True): "gateway PUT /api/objects/{oid}/files/{key}",
}


def error_response(error_type: str | None, message: str | None) -> HttpResponse:
    """The structured body every failed request answers with."""
    status = _STATUS_BY_ERROR.get(error_type, 500)
    return HttpResponse(status, {"error": message, "type": error_type})


def result_response(request: InvocationRequest, result: InvocationResult) -> HttpResponse:
    """Map an invocation's result onto HTTP — shared by the sim gateway
    and the asyncio HTTP front."""
    if not result.ok:
        return error_response(result.error_type, result.error)
    body: dict[str, Any] = dict(result.output)
    if result.created_object_id is not None:
        body.setdefault("id", result.created_object_id)
    return HttpResponse(201 if request.fn_name == "new" else 200, body)


def no_route(http: HttpRequest) -> HttpResponse:
    return error_response("NoRouteError", f"no route {http.method} {http.path}")


class Gateway:
    """Translates REST calls into invocation requests."""

    def __init__(
        self,
        env: Environment,
        engine: InvocationEngine,
        overhead_s: float = GATEWAY_OVERHEAD_S,
        tracer: Tracer | None = None,
        qos: QosPlane | None = None,
        planes: Mapping[str, Plane] | None = None,
        default_origin_zone: str | None = None,
    ) -> None:
        self.env = env
        self.engine = engine
        self.overhead_s = overhead_s
        # Explicit None check: an empty Tracer is falsy (it has __len__).
        self.tracer = tracer if tracer is not None else Tracer(env)
        self.qos = qos  # admission: per-request enforcement, held directly
        #: The platform's live plane registry: each plane contributes
        #: its REST surface to the admin chain.
        self.planes: Mapping[str, Plane] = planes if planes is not None else {}
        #: Stamped on requests that carry no ``x-origin-zone`` header.
        self.default_origin_zone = default_origin_zone
        self.requests = 0
        self.rejected = 0

    def handle(self, request: HttpRequest) -> Process:
        """Process one HTTP request; resolves to an :class:`HttpResponse`."""
        return self.env.process(self._handle(request))

    def _handle(self, http: HttpRequest) -> Generator[Any, Any, HttpResponse]:
        # One generator from routing to response: every kernel resume of
        # a request passes through one gateway frame, not two.
        self.requests += 1
        try:
            invocation = self._route(http)
            if invocation is None:
                admin = self.admin_route(http)
                if admin is not None:
                    if self.overhead_s:
                        yield self.env.timeout(self.overhead_s)
                    if isinstance(admin, HttpResponse):
                        return admin
                    return (yield from admin)
            if not isinstance(invocation, InvocationRequest):
                # A listing, a 405 or nobody's route: answered here.
                if self.overhead_s:
                    yield self.env.timeout(self.overhead_s)
                return no_route(http) if invocation is None else invocation
            origin = self.origin(http)
            admitted = False
            if self.qos is not None:
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
                # _route built this request and nobody else holds it yet:
                # origin and trace context are stamped into it, not copied.
                span = None
                if self.tracer.enabled:
                    trace_id = invocation.request_id
                    if invocation.cls is not None:
                        span = self.tracer.start(trace_id, _CREATE_SPAN, cls=invocation.cls)
                    else:
                        span = self.tracer.start(
                            trace_id,
                            _OBJECT_SPANS[http.method, invocation.fn_name == "file-url"],
                            object_id=invocation.object_id,
                        )
                    invocation.stamp(origin, trace_id, span)
                elif origin is not None:
                    invocation.stamp(origin)
                if self.overhead_s:
                    yield self.env.timeout(self.overhead_s)
                result = yield from self.engine.invoke_steps(invocation)
                response = result_response(invocation, result)
                if span is not None:
                    self.tracer.finish(span, status=response.status)
                return response
            finally:
                if admitted:
                    self.qos.release_http()
        except OaasError as exc:
            # Defensive boundary: platform errors raised outside the
            # engine (routing, listing) still produce structured payloads.
            return error_response(type(exc).__name__, str(exc))
        except Exception as exc:  # noqa: BLE001 - the REST boundary
            return error_response(
                "InternalError",
                f"internal platform error: {type(exc).__name__}: {exc}",
            )

    def origin(self, http: HttpRequest) -> str | None:
        """The zone a request comes from, for the engine's geo-router and
        jurisdiction gate: its ``x-origin-zone`` header, else the default
        origin zone; ``None`` without the federation plane.  The sim
        gateway and the asyncio front both decide it here."""
        if self.engine.federation is None:
            return None
        return http.headers.get("x-origin-zone") or self.default_origin_zone

    def admin_route(self, http: HttpRequest) -> Generator | HttpResponse | None:
        """The non-invocation surface: the object query, then each
        plane's routes in registry order.  ``None``: nobody's route."""
        admin = self._storage_route(http)
        for plane in self.planes.values():
            if admin is not None:
                break
            admin = plane.admin_route(http)
        return admin

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
        resolved = self.engine.directory.runtime(cls).resolved
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
        parts = list(filter(None, http.path.split("/")))  # no empty segments
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
