"""Invocation request/result types — the platform's client-facing RPC."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

__all__ = ["InvocationRequest", "InvocationResult", "new_request_id"]

_request_seq = itertools.count(1)

#: A mapping parameter's default: the constructors copy their mappings,
#: so one shared read-only empty one stands in for ``{}``.
_EMPTY: Mapping[str, Any] = MappingProxyType({})


def new_request_id() -> str:
    return f"req-{next(_request_seq)}"


@dataclass(frozen=True, init=False)
class InvocationRequest:
    """A request to invoke ``fn_name`` on object ``object_id``.

    ``cls`` may be omitted (``None``) — the platform resolves the class
    from the object record, which is what enables polymorphism: invoking
    ``resize`` on a ``LabelledImage`` through an ``Image``-typed
    reference dispatches to the object's actual class.

    ``internal`` marks platform-originated calls (dataflow steps), which
    may reach INTERNAL/PRIVATE bindings; ``caller_cls`` carries the
    invoking class for PRIVATE checks.

    Built on every request, so the constructor is written out and fills
    the instance in one ``__dict__`` update rather than one frozen-bypass
    store per field.  It takes the fields in order with their defaults
    and copies ``payload``; an omitted ``request_id`` is a fresh ``req-N``.
    """

    object_id: str
    fn_name: str
    cls: str | None = None
    payload: Mapping[str, Any] = field(default_factory=dict)
    request_id: str = field(default_factory=new_request_id)
    internal: bool = False
    caller_cls: str | None = None
    #: Trace correlation: sub-invocations (dataflow steps) inherit the
    #: originating request's trace id and link to their step span.
    trace_id: str | None = None
    trace_parent: int | None = None
    #: Geo-routing: the client's zone of origin.  ``None`` (the default,
    #: and always the case without the federation plane) keeps the
    #: baseline routing and skips jurisdiction enforcement.
    origin_zone: str | None = None

    def __init__(
        self,
        object_id: str,
        fn_name: str,
        cls: str | None = None,
        payload: Mapping[str, Any] = _EMPTY,
        request_id: str | None = None,
        internal: bool = False,
        caller_cls: str | None = None,
        trace_id: str | None = None,
        trace_parent: int | None = None,
        origin_zone: str | None = None,
    ) -> None:
        self.__dict__.update(
            object_id=object_id,
            fn_name=fn_name,
            cls=cls,
            payload=dict(payload),
            request_id=new_request_id() if request_id is None else request_id,
            internal=internal,
            caller_cls=caller_cls,
            trace_id=trace_id,
            trace_parent=trace_parent,
            origin_zone=origin_zone,
        )

    def stamp(
        self,
        origin_zone: str | None,
        trace_id: str | None = None,
        trace_parent: int | None = None,
    ) -> None:
        """Fill in where the request came from and the trace it belongs
        to — the gateway's last step on a request it has just parsed and
        not yet handed to anyone, in place of rebuilding it field by
        field.  A request that arrived from a caller is never stamped."""
        self.__dict__.update(
            origin_zone=origin_zone, trace_id=trace_id, trace_parent=trace_parent
        )


@dataclass(frozen=True, init=False)
class InvocationResult:
    """The outcome of one invocation (constructor written out, as
    :class:`InvocationRequest`'s; it copies ``output``)."""

    request_id: str
    cls: str
    object_id: str
    fn_name: str
    ok: bool
    output: Mapping[str, Any] = field(default_factory=dict)
    error: str | None = None
    error_type: str | None = None
    created_object_id: str | None = None
    latency_s: float = 0.0
    retries: int = 0

    def __init__(
        self,
        request_id: str,
        cls: str,
        object_id: str,
        fn_name: str,
        ok: bool,
        output: Mapping[str, Any] = _EMPTY,
        error: str | None = None,
        error_type: str | None = None,
        created_object_id: str | None = None,
        latency_s: float = 0.0,
        retries: int = 0,
    ) -> None:
        self.__dict__.update(
            request_id=request_id,
            cls=cls,
            object_id=object_id,
            fn_name=fn_name,
            ok=ok,
            output=dict(output),
            error=error,
            error_type=error_type,
            created_object_id=created_object_id,
            latency_s=latency_s,
            retries=retries,
        )

    def stamp(self, cls: str, latency_s: float) -> None:
        """Fill in the serving class and the measured latency — the
        engine's last step on a result it has just built and not yet
        handed to anyone, in place of rebuilding it field by field."""
        self.__dict__.update(cls=cls, latency_s=latency_s)

    @classmethod
    def failure(
        cls,
        request: InvocationRequest,
        error: str,
        resolved_cls: str = "",
        latency_s: float = 0.0,
        retries: int = 0,
        error_type: str = "InvocationError",
    ) -> "InvocationResult":
        return cls(
            request_id=request.request_id,
            cls=resolved_cls or (request.cls or ""),
            object_id=request.object_id,
            fn_name=request.fn_name,
            ok=False,
            error=error,
            error_type=error_type,
            latency_s=latency_s,
            retries=retries,
        )
