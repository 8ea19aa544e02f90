"""The invocation engine — Oparaca's data plane.

For every request it: resolves the target class (object ids are
prefixed ``Cls~suffix``, enabling polymorphic dispatch to the object's
*actual* class), routes to a handling node (per the class runtime's
placement policy), loads the object record from the class's DHT cache,
bundles state + payload into a pure-function
:class:`~repro.faas.runtime.InvocationTask`, offloads it to the bound
FaaS service, and commits the modified state back with optimistic
concurrency (compare-and-put on the record version, retrying the whole
load-execute-commit cycle on contention, up to ``MAX_CAS_RETRIES``).

Every data-plane step — the record load, the offload, the ``update`` /
``delete`` builtins and the FILE attach — is placed, path-checked,
retried and backed off by one attempt loop (``_attempt``).

Per-class resources (DHT cache, router, resilience policy, deployed
services) come from a :class:`RuntimeDirectory` — implemented by the
class runtime manager — so every class runs on the runtime its template
provisioned (§III-B).  The directory hands out one
:class:`~repro.crm.runtime.ClassRuntime` per class; the engine looks it
up once per step and reads everything else off it.

It also provides the *builtin* object lifecycle — ``new``, ``get``,
``update``, ``delete``, ``file-url`` — which short-circuits the FaaS
engine, and dispatches MACRO bindings to the dataflow executor.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Mapping, Protocol

from repro.errors import (
    ConcurrentModificationError,
    InvocationError,
    InvocationTimeoutError,
    KeyNotFoundError,
    OaasError,
    QueryError,
    TransportError,
    UnknownClassError,
    UnknownFunctionError,
    UnknownObjectError,
    ValidationError,
)
from repro.faas.engine import FunctionService
from repro.faas.runtime import InvocationTask, TaskCompletion
from repro.invoker.dataflow_exec import DataflowExecutor
from repro.invoker.request import InvocationRequest, InvocationResult
from repro.invoker.resilience import BreakerBoard, ResiliencePolicy
from repro.model.cls import AccessModifier, FunctionBinding
from repro.model.function import FunctionType
from repro.model.resolver import ResolvedClass
from repro.monitoring.collector import MonitoringSystem
from repro.monitoring.events import EventLog
from repro.monitoring.tracing import Tracer
from repro.object.obj import ObjectRecord
from repro.sim.kernel import Environment, Process, any_of
from repro.sim.rng import RngStreams
from repro.storage.document import copy_doc
from repro.storage.object_store import ObjectStore
from repro.storage.query import Query, QueryResult, evaluate_query

if TYPE_CHECKING:
    from repro.crm.runtime import ClassRuntime

__all__ = [
    "InvocationEngine",
    "RuntimeDirectory",
    "BUILTIN_METHODS",
    "split_object_id",
]

BUILTIN_METHODS = ("new", "get", "update", "delete", "file-url")

#: Sentinel value an offload-deadline timeout resolves with.
_TIMED_OUT = object()

#: Commit conflicts one invocation absorbs before it fails; a budget of
#: its own, apart from the policy's ``max_retries`` for faults.
MAX_CAS_RETRIES = 4

#: Separator between the class prefix and the unique suffix in object ids.
ID_SEPARATOR = "~"


def make_object_id(cls: str, suffix: str | None = None) -> str:
    """Compose a platform object id (``Image~a1b2...``)."""
    return f"{cls}{ID_SEPARATOR}{suffix or uuid.uuid4().hex}"


def _wait(event: Any) -> Generator[Any, Any, Any]:
    """A step that waits for one process: ``yield from _wait(proc)``."""
    return (yield event)


@dataclass(slots=True)
class _Faults:
    """One step's fault budget: the nodes that failed it and how many
    faults it has absorbed (the offload and its commit share one)."""

    exclude: set[str] = field(default_factory=set)
    count: int = 0


def split_object_id(object_id: str) -> tuple[str | None, str]:
    """Split an object id into (class, suffix); class is ``None`` when
    the id carries no prefix."""
    if ID_SEPARATOR in object_id:
        cls, _, suffix = object_id.partition(ID_SEPARATOR)
        return cls or None, suffix
    return None, object_id


class RuntimeDirectory(Protocol):
    """What the engine needs to know about deployed class runtimes."""

    def runtime(self, cls: str) -> ClassRuntime:
        """The class's runtime — its flattened class (``resolved``), DHT
        cache (``dht``), placement router (``router``), resilience policy
        (``resilience``) and services (``service(fn)``) — raising
        ``UnknownClassError`` if the class is not deployed."""

    def deployed_classes(self) -> tuple[str, ...]:
        """Names of deployed classes (for error messages)."""


class InvocationEngine:
    """Executes invocation requests against deployed class runtimes."""

    def __init__(
        self,
        env: Environment,
        directory: RuntimeDirectory,
        object_store: ObjectStore,
        monitoring: MonitoringSystem,
        bucket: str = "oparaca",
        *,
        tracer: Tracer,
        rng: RngStreams,
        events: EventLog,
    ) -> None:
        self.env = env
        self.directory = directory
        self.object_store = object_store
        self.monitoring = monitoring
        self.bucket = bucket
        self.tracer = tracer
        self.events = events
        self._retry_rng = rng.stream("resilience")
        self.breakers = BreakerBoard(env, events=events)
        #: Federation plane hook (geo-routing + jurisdiction gate);
        #: installed by the platform only when the plane is enabled.
        self.federation: Any | None = None
        self.object_store.create_bucket(bucket)
        self._dataflow = DataflowExecutor(self)
        self.invocations = 0
        self.cas_conflicts = 0
        self.fault_retries = 0
        self.timeouts = 0
        self.stale_reads = 0
        self.internal_errors = 0

    def stats(self) -> dict[str, int]:
        """Invocations run, the retries and fallbacks they took, and the
        circuit breakers open now."""
        return {
            "invocations": self.invocations,
            "cas_conflicts": self.cas_conflicts,
            "fault_retries": self.fault_retries,
            "timeouts": self.timeouts,
            "stale_reads": self.stale_reads,
            "internal_errors": self.internal_errors,
            "open_breakers": self.breakers.open_count(),
        }

    # -- public API -------------------------------------------------------------

    def invoke(self, request: InvocationRequest) -> Process:
        """Run a request; resolves to an :class:`InvocationResult`.

        Application-level problems (unknown object, failed handler,
        access violations) become error results, never exceptions.
        """
        return self.env.process(self.invoke_steps(request))

    def invoke_steps(
        self, request: InvocationRequest
    ) -> Generator[Any, Any, InvocationResult]:
        """The body of :meth:`invoke`, for a caller that is already a
        process and only waits for the result: ``result = yield from
        engine.invoke_steps(request)`` runs the same steps at the same
        simulated times without scheduling a child process."""
        self.invocations += 1
        started = self.env.now
        trace_id = request.trace_id or request.request_id
        root = None
        if self.tracer.enabled:
            root = self.tracer.start(
                trace_id,
                f"invoke {request.fn_name}",
                parent=request.trace_parent,
                object_id=request.object_id,
            )
        try:
            if self.federation is not None and request.origin_zone is not None:
                # Pay the client leg to the serving replica.
                leg = self.admit_origin(request)
                if leg > 0:
                    yield self.env.timeout(leg)
            if request.fn_name == "new":
                result = yield from self._builtin_new(request)
            else:
                record = yield from self._load_record(request, trace_id, root)
                runtime, binding = self._bind(request, record)
                if binding is None or binding.function.ftype is FunctionType.BUILTIN:
                    result = yield from self._builtin(request, runtime, record)
                elif binding.function.ftype is FunctionType.MACRO:
                    result = yield from self._dataflow.execute(
                        request, runtime.resolved, binding, record, trace_id, root
                    )
                else:
                    result = yield from self._invoke_task(
                        request, runtime, binding, record, trace_id, root
                    )
        except OaasError as exc:
            result = InvocationResult.failure(
                request, str(exc), error_type=type(exc).__name__
            )
        except Exception as exc:  # noqa: BLE001 - the invoker boundary
            # No raw exception may escape to callers: everything surfaces
            # as a structured error result (gateway maps it to a 500).
            self.internal_errors += 1
            result = InvocationResult.failure(
                request,
                f"internal platform error: {type(exc).__name__}: {exc}",
                error_type="InternalError",
            )
        latency = self.env.now - started
        # Failures raised before the record loaded carry no class; fall
        # back to the request / id prefix so per-class availability
        # accounting sees them (a lost object still counts against its
        # class's error rate).
        cls = result.cls or request.cls or split_object_id(request.object_id)[0]
        result.stamp(cls, latency)
        if root is not None:
            self.tracer.finish(root, ok=result.ok, cls=cls, retries=result.retries)
        if cls:
            self.monitoring.for_class(cls).record_invocation(latency, result.ok)
        return result

    # -- dispatch -----------------------------------------------------------------

    def _bind(
        self, request: InvocationRequest, record: ObjectRecord
    ) -> tuple[ClassRuntime, FunctionBinding | None]:
        """The loaded object's runtime and the binding the request calls,
        its access checked; ``None`` for a builtin the class does not
        override."""
        runtime = self.directory.runtime(record.cls)
        resolved = runtime.resolved
        if request.cls is not None and not resolved.is_subclass_of(request.cls):
            raise InvocationError(
                f"object {request.object_id!r} is a {record.cls!r}, which is "
                f"not a subtype of the requested class {request.cls!r}"
            )
        binding = resolved.binding(request.fn_name)
        if binding is None:
            if request.fn_name in BUILTIN_METHODS:
                return runtime, None
            raise UnknownFunctionError(
                f"class {resolved.name!r} has no function {request.fn_name!r}; "
                f"available: {list(resolved.method_names)}"
            )
        self._check_access(request, resolved, binding)
        return runtime, binding

    def _check_access(
        self, request: InvocationRequest, resolved: ResolvedClass, binding: FunctionBinding
    ) -> None:
        if binding.access is AccessModifier.PUBLIC:
            return
        if not request.internal:
            raise InvocationError(
                f"{resolved.name}.{binding.name} is {binding.access.value} and "
                "cannot be invoked externally"
            )
        if binding.access is AccessModifier.PRIVATE:
            caller = request.caller_cls
            if caller is None or not self.directory.runtime(caller).resolved.is_subclass_of(
                resolved.name
            ):
                raise InvocationError(
                    f"{resolved.name}.{binding.name} is PRIVATE; caller "
                    f"{caller!r} is not in its class hierarchy"
                )

    # -- record access --------------------------------------------------------------

    def _target_class(self, request: InvocationRequest) -> str:
        cls, _ = split_object_id(request.object_id)
        cls = cls or request.cls
        if cls is None:
            raise InvocationError(
                f"cannot determine the class of object {request.object_id!r}; "
                "pass cls explicitly or use platform-generated ids"
            )
        return cls

    # -- resilience enforcement ------------------------------------------------------

    def admit_origin(self, request: InvocationRequest) -> float:
        """Federation gate, run only with the plane on and an origin zone:
        enforce the target class's jurisdiction constraint against the
        request's origin zone (a rejection counts in the class's
        ``jurisdiction`` verdict) and return the client leg to the
        serving replica.  The asyncio front calls it before it submits,
        since the worker it dispatches to sees no origin."""
        runtime = self.directory.runtime(self._target_class(request))
        return self.federation.admit(
            request.origin_zone,
            runtime.cls,
            runtime.resolved.nfr.constraint.jurisdictions,
            runtime.dht,
            request.object_id,
        )

    def _place(
        self,
        runtime: ClassRuntime,
        object_id: str,
        exclude: set[str],
        origin_zone: str | None = None,
    ) -> str:
        """The router's choice, shed away from excluded/broken nodes.

        The fast path (no breakers instantiated, nothing excluded) is
        exactly ``router.place`` — or, with the federation plane and an
        origin zone, the eligible replica nearest to that zone.
        Otherwise candidates are scanned in preference order — routed
        node, then the object's owners, then any member — skipping nodes
        already failed this request and nodes with an open breaker.
        """
        fed = self.federation
        if not exclude and not self.breakers.active:
            if fed is not None and origin_zone is not None:
                return fed.route(runtime.dht, object_id, origin_zone)
            return runtime.router.place(object_id)
        cls, dht = runtime.cls, runtime.dht
        primary = runtime.router.place(object_id)
        fallback: str | None = None
        seen: set[str] = set()
        for node in (primary, *dht.owners(object_id), *dht.nodes):
            if node in seen:
                continue
            seen.add(node)
            if node in exclude:
                continue
            if fallback is None:
                fallback = node
            if self.breakers.allow(cls, node):
                if node != primary:
                    self.events.record(
                        "resilience.shed", cls=cls, avoided=primary, node=node
                    )
                return node
        if fallback is not None:
            # Every non-excluded node has an open breaker: probe the
            # first one rather than refusing outright.
            return fallback
        return primary

    def _attempt(
        self,
        step: Callable[[str, int | None], Generator],
        runtime: ClassRuntime,
        request: InvocationRequest,
        faults: _Faults,
        trace_id: str | None = None,
        parent: int | None = None,
        span: Callable[[str], int | None] | None = None,
    ) -> Generator[Any, Any, tuple[str, int | None, Any]]:
        """The one attempt loop: place, check the client→node path, run
        ``step(node, span)``; on a transport fault or a missed deadline,
        :meth:`_fault_retry` and place again until ``policy.max_retries``
        is spent, then re-raise.  ``span(node)`` opens the attempt's span
        (closed here on a fault); the node placement chose is its
        ``node`` attribute.  Returns ``(node, span, value)``."""
        cls, network, policy = runtime.cls, runtime.dht.network, runtime.resilience
        while True:
            caller = self._place(
                runtime, request.object_id, faults.exclude, origin_zone=request.origin_zone
            )
            opened = span(caller) if span is not None and self.tracer.enabled else None
            try:
                network.check_path(None, caller)
                value = yield from step(caller, opened)
            except (TransportError, InvocationTimeoutError) as exc:
                self.tracer.finish(opened, ok=False, error=type(exc).__name__)
                if (yield from self._fault_retry(
                    cls, caller, policy, exc, faults, trace_id, parent
                )):
                    continue
                raise
            if self.breakers.active:
                self.breakers.record_success(cls, caller)
            return caller, opened, value

    def _fault_retry(
        self,
        cls: str,
        caller: str,
        policy: ResiliencePolicy,
        exc: OaasError,
        faults: _Faults,
        trace_id: str | None,
        parent: int | None,
    ) -> Generator[Any, Any, bool]:
        """Account one data-plane fault; yields the backoff delay and
        returns whether the caller should retry."""
        self.breakers.record_failure(cls, caller, policy)
        faults.exclude.add(caller)
        faults.count += 1
        attempt = faults.count
        if isinstance(exc, InvocationTimeoutError):
            self.timeouts += 1
            self.events.record(
                "resilience.timeout", cls=cls, node=caller, deadline_s=policy.deadline_s
            )
        if attempt > policy.max_retries:
            self.events.record(
                "resilience.exhausted",
                cls=cls,
                node=caller,
                attempts=attempt,
                error=type(exc).__name__,
            )
            return False
        self.fault_retries += 1
        delay = policy.backoff_s(attempt, self._retry_rng)
        self.events.record(
            "resilience.retry",
            cls=cls,
            node=caller,
            attempt=attempt,
            error=type(exc).__name__,
        )
        span = self.tracer.start(
            trace_id,
            "resilience.retry",
            parent=parent,
            node=caller,
            attempt=attempt,
            error=type(exc).__name__,
        )
        yield self.env.timeout(delay)
        self.tracer.finish(span)
        return True

    def _offload_with_deadline(
        self, service: FunctionService, task: InvocationTask, policy: ResiliencePolicy
    ) -> Generator[Any, Any, TaskCompletion]:
        """Offload to the FaaS service, bounded by the policy deadline.
        Without a deadline this is the service's own steps, not a frame
        wrapped round them."""
        if policy.deadline_s is None:
            return service.invoke_steps(task)
        return self._race_deadline(service, task, policy.deadline_s)

    def _race_deadline(
        self, service: FunctionService, task: InvocationTask, deadline_s: float
    ) -> Generator[Any, Any, TaskCompletion]:
        # The deadline races the offload, so it stays a process of its own.
        _, value = yield any_of(
            self.env, [service.invoke(task), self.env.timeout(deadline_s, _TIMED_OUT)]
        )
        if value is _TIMED_OUT:
            raise InvocationTimeoutError(
                f"{service.name}: no completion within {deadline_s}s deadline"
            )
        return value

    def _load_record(
        self,
        request: InvocationRequest,
        trace_id: str | None = None,
        parent: int | None = None,
        exclude: set[str] | None = None,
        fresh: bool = False,
    ) -> Generator[Any, Any, ObjectRecord]:
        runtime = self.directory.runtime(self._target_class(request))
        dht = runtime.dht
        trace_id = trace_id or request.request_id
        try:
            _, span, doc = yield from self._attempt(
                lambda caller, _: dht.get_steps(request.object_id, caller, fresh),
                runtime, request, _Faults(exclude or set()), trace_id, parent,
                span=lambda caller: self.tracer.start(
                    trace_id, "state.load", parent=parent, node=caller
                ),
            )
        except TransportError:
            # Graceful degradation: every DHT owner is unreachable, so a
            # persistent class serves its durable copy (ephemeral classes
            # have none and fail).
            policy = runtime.resilience
            if not policy.stale_read_fallback or dht.store is None or not dht.model.persistent:
                raise
            stale = self.tracer.start(trace_id, "state.stale_read", parent=parent)
            doc = yield dht.stale_get(request.object_id)
            self.tracer.finish(stale, hit=doc is not None)
            if doc is None:
                raise
            self.stale_reads += 1
            self.events.record(
                "resilience.stale_read", cls=runtime.cls, object=request.object_id
            )
            return ObjectRecord.from_doc(doc)
        if span is not None:
            self.tracer.finish(span, hit=doc is not None, owner=dht.owner(request.object_id))
        if doc is None:
            raise UnknownObjectError(f"no object {request.object_id!r}")
        return ObjectRecord.from_doc(doc)

    # -- the pure-function task path ---------------------------------------------------

    def _invoke_task(
        self,
        request: InvocationRequest,
        runtime: ClassRuntime,
        binding: FunctionBinding,
        record: ObjectRecord,
        trace_id: str,
        root: int | None,
    ) -> Generator[Any, Any, InvocationResult]:
        service = runtime.service(binding.name)
        policy = runtime.resilience
        # Faults (offload and commit) and commit conflicts have separate
        # budgets; the result's ``retries`` counts both.
        faults = _Faults()
        conflicts = 0

        def failure(error: str, error_type: str) -> InvocationResult:
            return InvocationResult.failure(
                request,
                error,
                resolved_cls=runtime.cls,
                retries=faults.count + conflicts,
                error_type=error_type,
            )

        while True:
            try:
                caller, offload, completion = yield from self._attempt(
                    lambda caller, span: self._offload_with_deadline(
                        service, self._build_task(request, binding, record, trace_id, span), policy
                    ),
                    runtime, request, faults, trace_id, root,
                    span=lambda caller: self.tracer.start(
                        trace_id, service.offload_span_name, parent=root
                    ),
                )
            except (TransportError, InvocationTimeoutError) as exc:
                return failure(str(exc), type(exc).__name__)
            if offload is not None:
                self.tracer.finish(offload, ok=completion.ok)
            if completion.error is not None:
                return failure(completion.error, "FunctionExecutionError")
            if binding.mutable and (completion.state_updates or completion.file_updates):
                commit_span = None
                if self.tracer.enabled:
                    commit_span = self.tracer.start(trace_id, "state.commit", parent=root)
                try:
                    updated = self._updated(runtime, record, completion)
                    yield from runtime.dht.put_steps(updated.to_doc(), caller, record.version)
                    record = updated
                    if commit_span is not None:
                        self.tracer.finish(commit_span, ok=True)
                except ConcurrentModificationError:
                    self.tracer.finish(commit_span, ok=False, conflict=True)
                    self.cas_conflicts += 1
                    conflicts += 1
                    if conflicts > MAX_CAS_RETRIES:
                        return failure(
                            f"object {record.id!r} is too contended: "
                            f"{conflicts} failed commit attempts",
                            "ConcurrentModificationError",
                        )
                    # fresh=True: a CAS conflict means our copy was stale;
                    # a near-cache re-read could hand the same stale
                    # version straight back and spin the retry loop.
                    record = yield from self._load_record(request, trace_id, root, fresh=True)
                    continue
                except TransportError as exc:
                    # The commit never reached an owner: retry the whole
                    # load-execute-commit cycle (at-least-once semantics,
                    # like a CAS conflict).
                    self.tracer.finish(commit_span, ok=False, error=type(exc).__name__)
                    if not (yield from self._fault_retry(
                        runtime.cls, caller, policy, exc, faults, trace_id, root
                    )):
                        return failure(str(exc), type(exc).__name__)
                    record = yield from self._load_record(
                        request, trace_id, root, exclude=set(faults.exclude)
                    )
                    continue
            created_id = None
            if binding.output_class is not None:
                created_id = yield from self._materialize_output(
                    binding.output_class, completion
                )
            return InvocationResult(
                request_id=request.request_id,
                cls=runtime.cls,
                object_id=record.id,
                fn_name=binding.name,
                ok=True,
                output=completion.output,
                created_object_id=created_id,
                retries=faults.count + conflicts,
            )

    def _build_task(
        self,
        request: InvocationRequest,
        binding: FunctionBinding,
        record: ObjectRecord,
        trace_id: str | None = None,
        span: int | None = None,
    ) -> InvocationTask:
        file_urls = {
            key: self.object_store.presign(self.bucket, object_key, "GET")
            for key, object_key in record.files.items()
        }
        return InvocationTask(
            request_id=request.request_id,
            cls=record.cls,
            object_id=record.id,
            fn_name=binding.name,
            image=binding.function.image,
            payload=request.payload,
            state=record.state,
            file_urls=file_urls,
            immutable=not binding.mutable,
            trace_id=trace_id if span is not None else None,
            trace_parent=span,
        )

    def _updated(
        self, runtime: ClassRuntime, record: ObjectRecord, completion: TaskCompletion
    ) -> ObjectRecord:
        """The version a completion commits over ``record``, its state
        and file keys checked against the class."""
        resolved = runtime.resolved
        resolved.state.validate_state(completion.state_updates)
        for key in completion.file_updates:
            spec = resolved.state.get(key)
            if spec is None or not spec.is_file:
                raise ValidationError(
                    f"function updated file key {key!r}, which is not a FILE "
                    f"state key of class {resolved.name!r}"
                )
        return record.with_updates(completion.state_updates, completion.file_updates)

    def _materialize_output(
        self, output_cls: str, completion: TaskCompletion
    ) -> Generator[Any, Any, str]:
        runtime = self.directory.runtime(output_cls)
        resolved = runtime.resolved
        state = dict(resolved.state.defaults())
        for key, value in completion.output.items():
            spec = resolved.state.get(key)
            if spec is not None and not spec.is_file:
                state[key] = value
        resolved.state.validate_state(state)
        object_id = make_object_id(output_cls)
        record = ObjectRecord(id=object_id, cls=output_cls, version=1, state=state)
        caller = runtime.router.place(object_id)
        yield runtime.dht.put(record.to_doc(), caller=caller)
        return record.id

    # -- catalog ----------------------------------------------------------------------

    def list_objects(self, cls: str) -> list[str]:
        """Ids of every live object of ``cls`` (not subclasses)."""
        return self.directory.runtime(cls).dht.scan_ids()

    def query_objects(self, cls: str, query: Query) -> Process:
        """Run a typed query over the objects of ``cls``; the process
        resolves to a :class:`~repro.storage.query.QueryResult`.

        Persistent classes answer from the store backend (flushing the
        write-behind queue first so every acknowledged commit is
        visible); ephemeral classes scan the DHT's resident records with
        the same reference evaluator, so the query surface works either
        way — only the plan differs.
        """
        return self.env.process(self._query_objects(cls, query))

    def _query_objects(
        self, cls: str, query: Query
    ) -> Generator[Any, Any, QueryResult]:
        runtime = self.directory.runtime(cls)
        resolved = runtime.resolved
        wanted = {pred.key for pred in query.where}
        if query.order_by is not None:
            wanted.add(query.order_by)
        for key in sorted(wanted):
            spec = resolved.state.get(key)
            if spec is None:
                raise QueryError(
                    f"class {cls!r} declares no state key {key!r}"
                )
            if spec.is_file:
                raise QueryError(
                    f"state key {key!r} of class {cls!r} is a FILE key; "
                    "file keys are not queryable"
                )
        dht = runtime.dht
        started = self.env.now
        if dht.store is not None and dht.model.persistent:
            # Queued write-behind buffers hold acknowledged commits the
            # backend has not seen yet; drain them so the query observes
            # every acknowledged write (read-your-writes at the surface).
            yield dht.flush_all()
            result = yield dht.store.query(dht.collection, query)
        else:
            # The shared versions are read in place; only the page the
            # caller gets is copied.
            docs = (dht.current(key) for key in dht.scan_ids())
            result = evaluate_query(
                (doc for doc in docs if doc is not None), query, plan="memory-scan"
            )
            result.docs = [copy_doc(doc) for doc in result.docs]
        self.events.record(
            "storage.query",
            cls=cls,
            matched=len(result.docs),
            scanned=result.scanned,
            index_used=result.index_used,
            plan=result.plan,
            duration_s=self.env.now - started,
        )
        return result

    # -- file attachment (platform-internal) ----------------------------------------------

    def attach_file(self, object_id: str, key: str, object_key: str) -> Process:
        """Commit a FILE state-key mapping after an out-of-band upload."""
        return self.env.process(self._attach_file(object_id, key, object_key))

    def _attach_file(self, object_id: str, key: str, object_key: str) -> Generator:
        request = InvocationRequest(object_id=object_id, fn_name="file-url")
        for _ in range(MAX_CAS_RETRIES + 1):
            record = yield from self._load_record(request)
            runtime = self.directory.runtime(record.cls)
            spec = runtime.resolved.state.get(key)
            if spec is None or not spec.is_file:
                raise ValidationError(f"{record.cls!r} has no FILE state key {key!r}")
            updated = record.with_updates(file_updates={key: object_key})
            try:
                yield from self._compare_and_put(runtime, request, record, updated)
                return updated
            except ConcurrentModificationError:
                self.cas_conflicts += 1
        raise InvocationError(f"object {object_id!r} too contended to attach file")

    def _compare_and_put(
        self,
        runtime: ClassRuntime,
        request: InvocationRequest,
        record: ObjectRecord,
        updated: ObjectRecord,
    ) -> Generator:
        """Commit ``updated`` over ``record`` through the attempt loop —
        the ``update`` builtin's write and the FILE attach's.  A conflict
        raises :class:`ConcurrentModificationError` to the caller."""
        dht = runtime.dht
        doc = updated.to_doc()
        yield from self._attempt(
            lambda caller, _: _wait(
                dht.compare_and_put(doc, expected_version=record.version, caller=caller)
            ),
            runtime, request, _Faults(),
        )

    # -- builtins ----------------------------------------------------------------------

    def _builtin_new(self, request: InvocationRequest) -> Generator[Any, Any, InvocationResult]:
        cls = request.cls or split_object_id(request.object_id)[0]
        if cls is None:
            raise InvocationError("'new' requires an explicit class")
        runtime = self.directory.runtime(cls)
        resolved = runtime.resolved
        state = dict(resolved.state.defaults())
        overrides = dict(request.payload.get("state", {}))
        resolved.state.validate_state(overrides)
        state.update(overrides)
        requested = request.payload.get("id") or (request.object_id or None)
        if requested:
            prefix, suffix = split_object_id(str(requested))
            if prefix is not None and prefix != resolved.name:
                raise InvocationError(
                    f"id {requested!r} carries class prefix {prefix!r}, but the "
                    f"object is being created as {resolved.name!r}"
                )
            object_id = make_object_id(resolved.name, suffix)
        else:
            object_id = make_object_id(resolved.name)
        dht = runtime.dht
        caller = self._place(runtime, object_id, set(), origin_zone=request.origin_zone)
        existing = yield dht.get(object_id, caller=caller)
        if existing is not None:
            raise InvocationError(f"object {object_id!r} already exists")
        record = ObjectRecord(id=object_id, cls=resolved.name, version=1, state=state)
        yield dht.put(record.to_doc(), caller=caller)
        return InvocationResult(
            request_id=request.request_id,
            cls=resolved.name,
            object_id=object_id,
            fn_name="new",
            ok=True,
            output={"id": object_id},
            created_object_id=object_id,
        )

    def _builtin(
        self, request: InvocationRequest, runtime: ClassRuntime, record: ObjectRecord
    ) -> Generator[Any, Any, InvocationResult]:
        fn = request.fn_name
        resolved = runtime.resolved

        def ok(output: Mapping[str, Any]) -> InvocationResult:
            return InvocationResult(
                request_id=request.request_id,
                cls=resolved.name,
                object_id=record.id,
                fn_name=fn,
                ok=True,
                output=output,
            )

        if fn == "get":
            return ok(
                {
                    "id": record.id,
                    "cls": record.cls,
                    "version": record.version,
                    "state": dict(record.state),
                    "files": dict(record.files),
                }
            )
        if fn == "update":
            updates = dict(request.payload.get("state", {}))
            resolved.state.validate_state(updates)
            updated = record.with_updates(updates)
            yield from self._compare_and_put(runtime, request, record, updated)
            return ok({"version": updated.version})
        if fn == "delete":
            yield from self._attempt(
                lambda caller, _: _wait(runtime.dht.delete(record.id, caller=caller)),
                runtime, request, _Faults(),
            )
            for object_key in record.files.values():
                try:
                    self.object_store.delete_object(self.bucket, object_key)
                except KeyNotFoundError:
                    # A never-uploaded or already-removed file key is not
                    # an error for the object deletion as a whole.
                    pass
            return ok({"deleted": record.id})
        if fn == "file-url":
            key = request.payload.get("key")
            method = str(request.payload.get("method", "GET")).upper()
            spec = resolved.state.get(key) if key else None
            if spec is None or not spec.is_file:
                raise ValidationError(
                    f"{resolved.name!r} has no FILE state key {key!r}"
                )
            if method == "GET":
                object_key = record.files.get(key)
                if object_key is None:
                    raise UnknownObjectError(
                        f"object {record.id!r} has no file for key {key!r} yet"
                    )
                return ok({"url": self.object_store.presign(self.bucket, object_key, "GET")})
            if method == "PUT":
                object_key = f"{record.cls}/{record.id}/{key}/v{record.version + 1}"
                url = self.object_store.presign(self.bucket, object_key, "PUT")
                return ok({"url": url, "object_key": object_key})
            raise ValidationError(f"file-url method must be GET or PUT, got {method!r}")
        raise UnknownFunctionError(f"unknown builtin {fn!r}")
