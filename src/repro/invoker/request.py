"""Invocation request/result types — the platform's client-facing RPC."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["InvocationRequest", "InvocationResult", "new_request_id"]

_request_seq = itertools.count(1)


def new_request_id() -> str:
    return f"req-{next(_request_seq)}"


@dataclass(frozen=True)
class InvocationRequest:
    """A request to invoke ``fn_name`` on object ``object_id``.

    ``cls`` may be omitted (``None``) — the platform resolves the class
    from the object record, which is what enables polymorphism: invoking
    ``resize`` on a ``LabelledImage`` through an ``Image``-typed
    reference dispatches to the object's actual class.

    ``internal`` marks platform-originated calls (dataflow steps), which
    may reach INTERNAL/PRIVATE bindings; ``caller_cls`` carries the
    invoking class for PRIVATE checks.
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "payload", dict(self.payload))

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
        object.__setattr__(self, "origin_zone", origin_zone)
        object.__setattr__(self, "trace_id", trace_id)
        object.__setattr__(self, "trace_parent", trace_parent)


@dataclass(frozen=True)
class InvocationResult:
    """The outcome of one invocation."""

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

    def __post_init__(self) -> None:
        object.__setattr__(self, "output", dict(self.output))

    def stamp(self, cls: str, latency_s: float) -> None:
        """Fill in the serving class and the measured latency — the
        engine's last step on a result it has just built and not yet
        handed to anyone, in place of rebuilding it field by field."""
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "latency_s", latency_s)

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
