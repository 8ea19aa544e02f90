"""The pure-function offloading contract (paper §III-C).

Oparaca's class runtime "bundles the object state and input request
into the standalone invocation task" and offloads it to a FaaS engine,
which "returns the output and modified state in the response body".
This module defines that wire contract:

* :class:`InvocationTask` — everything the function needs: target
  object identity, a *copy* of its structured state, presigned URLs for
  its FILE entries, and the request payload.
* :class:`TaskCompletion` — the function's response: output payload,
  state updates, file updates, or an error.
* :class:`TaskContext` — the SDK handed to Python handlers; mutations
  to ``ctx.state`` are diffed into the completion automatically.

Handlers may be plain callables (instantaneous) or generator functions
that ``yield`` simulation events — the latter model applications that
perform their own blocking I/O *while occupying a function replica*,
which is exactly how the Fig. 3 Knative baseline hits the database on
every request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

from repro.errors import ValidationError

__all__ = ["InvocationTask", "TaskCompletion", "TaskContext"]

#: A mapping parameter's default (copied by the constructors).
_EMPTY: Mapping[str, Any] = MappingProxyType({})


@dataclass(frozen=True, init=False)
class InvocationTask:
    """A standalone unit of work shipped to a FaaS engine.

    The engine needs nothing else: state travels with the task, so the
    code execution runtime is "entirely decoupled from the state
    management".  The constructor is written out, as
    :class:`~repro.invoker.request.InvocationRequest`'s, and copies the
    three mappings.
    """

    request_id: str
    cls: str
    object_id: str
    fn_name: str
    image: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    state: Mapping[str, Any] = field(default_factory=dict)
    file_urls: Mapping[str, str] = field(default_factory=dict)
    immutable: bool = False
    #: Trace correlation: the engine stamps the originating trace and
    #: the offload span, so FaaS-side spans (queueing, cold start,
    #: execution) land in the same tree as the invocation.
    trace_id: str | None = None
    trace_parent: int | None = None

    def __init__(
        self,
        request_id: str,
        cls: str,
        object_id: str,
        fn_name: str,
        image: str,
        payload: Mapping[str, Any] = _EMPTY,
        state: Mapping[str, Any] = _EMPTY,
        file_urls: Mapping[str, str] = _EMPTY,
        immutable: bool = False,
        trace_id: str | None = None,
        trace_parent: int | None = None,
    ) -> None:
        self.__dict__.update(
            request_id=request_id,
            cls=cls,
            object_id=object_id,
            fn_name=fn_name,
            image=image,
            payload=dict(payload),
            state=dict(state),
            file_urls=dict(file_urls),
            immutable=immutable,
            trace_id=trace_id,
            trace_parent=trace_parent,
        )


@dataclass(frozen=True, init=False)
class TaskCompletion:
    """The function's response (constructor written out; it copies the
    three mappings)."""

    request_id: str
    output: Mapping[str, Any] = field(default_factory=dict)
    state_updates: Mapping[str, Any] = field(default_factory=dict)
    file_updates: Mapping[str, str] = field(default_factory=dict)
    error: str | None = None

    def __init__(
        self,
        request_id: str,
        output: Mapping[str, Any] = _EMPTY,
        state_updates: Mapping[str, Any] = _EMPTY,
        file_updates: Mapping[str, str] = _EMPTY,
        error: str | None = None,
    ) -> None:
        self.__dict__.update(
            request_id=request_id,
            output=dict(output),
            state_updates=dict(state_updates),
            file_updates=dict(file_updates),
            error=error,
        )

    @property
    def ok(self) -> bool:
        return self.error is None

    @classmethod
    def failure(cls, request_id: str, error: str) -> "TaskCompletion":
        return cls(request_id=request_id, error=error)


class TaskContext:
    """The handler-side SDK around an :class:`InvocationTask`.

    ``ctx.state`` is a mutable copy of the object state; after the
    handler runs, :meth:`completion` diffs it against the original to
    produce the ``state_updates`` the platform commits.  Handlers on
    immutable bindings get a frozen view — writes raise immediately
    rather than being silently dropped.
    """

    def __init__(self, task: InvocationTask, services: Mapping[str, Any] | None = None) -> None:
        self.task = task
        self.payload = dict(task.payload)
        self.state = dict(task.state)
        self.files = dict(task.file_urls)
        self.services = dict(services or {})
        self._original_state = dict(task.state)
        self._file_updates: dict[str, str] = {}

    @property
    def object_id(self) -> str:
        return self.task.object_id

    @property
    def cls(self) -> str:
        return self.task.cls

    def service(self, name: str) -> Any:
        """A platform-bound service (object store client, etc.)."""
        if name not in self.services:
            raise ValidationError(f"no service {name!r} bound to this runtime")
        return self.services[name]

    def update_file(self, key: str, object_key: str) -> None:
        """Record that FILE state key ``key`` now points at ``object_key``."""
        self._file_updates[key] = object_key

    def state_updates(self) -> dict[str, Any]:
        """Keys whose values changed relative to the incoming task."""
        if self.task.immutable:
            return {}
        updates: dict[str, Any] = {}
        for key, value in self.state.items():
            if key not in self._original_state or self._original_state[key] != value:
                updates[key] = value
        return updates

    def completion(self, output: Mapping[str, Any] | None = None) -> TaskCompletion:
        """Build the task response from the context's current state."""
        if self.task.immutable and (
            self.state != self._original_state or self._file_updates
        ):
            return TaskCompletion.failure(
                self.task.request_id,
                f"function {self.task.fn_name!r} modified state but its "
                "binding is immutable",
            )
        return TaskCompletion(
            request_id=self.task.request_id,
            output=dict(output or {}),
            state_updates=self.state_updates(),
            file_updates=dict(self._file_updates),
        )
