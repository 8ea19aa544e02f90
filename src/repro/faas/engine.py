"""FaaS engine abstraction.

Oparaca "doesn't tightly rely on any FaaS system ... by using an RPC
request for offloading a task, any FaaS engine can accept this task"
(§III-C).  Accordingly the platform only depends on this interface:

* :class:`FaasEngine.deploy` turns a function definition into a
  :class:`FunctionService`;
* :meth:`FunctionService.invoke` accepts an
  :class:`~repro.faas.runtime.InvocationTask` and resolves to a
  :class:`~repro.faas.runtime.TaskCompletion`.

Shared here: the execution core that occupies a pod slot, charges
routing overhead and service time, runs the handler (plain or
generator), and converts results/exceptions into completions; the one
pod spec and deployment a service runs on; and the engine's deploy /
delete bookkeeping.  An engine is a row: it names its
:attr:`FaasEngine.service_type` and :attr:`FaasEngine.model_type`, and
the service type brings its own pod acquisition and autoscaler.
"""

from __future__ import annotations

import abc
import inspect
from dataclasses import dataclass
from typing import Any, Generator, Mapping

from repro.errors import InvocationError, ValidationError
from repro.faas.registry import FunctionRegistry, RegisteredImage
from repro.faas.runtime import InvocationTask, TaskCompletion, TaskContext
from repro.model.function import FunctionDefinition
from repro.monitoring.events import EventLog
from repro.monitoring.tracing import Tracer
from repro.orchestrator.deployment import Deployment
from repro.orchestrator.pod import Pod, PodSpec
from repro.orchestrator.resources import ResourceSpec
from repro.orchestrator.scheduler import Scheduler
from repro.sim.kernel import Environment, Process

__all__ = ["EngineModel", "FunctionService", "FaasEngine"]


@dataclass(frozen=True)
class EngineModel:
    """Per-request cost of the engine's data path.

    ``request_overhead_s`` covers the proxy hops a request traverses
    before user code runs (for Knative: activator + queue-proxy; for a
    plain deployment: just the service VIP).  The gap between the two is
    the ``oprc`` vs ``oprc-bypass`` difference in Fig. 3.
    """

    request_overhead_s: float = 0.001
    cold_start_s: float = 1.5


class FunctionService(abc.ABC):
    """One deployed function on some engine, running on one
    :class:`Deployment` of ``max(1, min_scale)`` initial replicas."""

    #: Whether an autoscaler of its own moves replicas above the floor.
    autoscaled = False
    #: Prefix of the deployment's name (``<prefix>-<service>``).
    deployment_prefix: str
    #: Label key naming the service on each of its pods.
    pod_label: str

    def __init__(
        self,
        env: Environment,
        name: str,
        definition: FunctionDefinition,
        entry: RegisteredImage,
        scheduler: Scheduler,
        model: EngineModel,
        services: Mapping[str, Any] | None = None,
        node_hints: list[str] | None = None,
        tracer: Tracer | None = None,
        events: EventLog | None = None,
    ) -> None:
        provision = definition.provision
        spec = PodSpec(
            image=definition.image,
            resources=ResourceSpec(provision.cpu_millis, provision.memory_mb),
            concurrency=provision.concurrency,
            startup_delay_s=model.cold_start_s,
            labels={self.pod_label: name},
        )
        self.deployment = Deployment(
            env,
            name=f"{self.deployment_prefix}-{name}",
            spec=spec,
            scheduler=scheduler,
            replicas=max(1, provision.min_scale),
            node_hints=node_hints,
        )
        self.env = env
        self.name = name
        self.definition = definition
        self.entry = entry
        self.model = model
        #: The floor no scaler goes below (the optimizer moves it).
        self.min_scale = provision.min_scale
        self.services = dict(services or {})
        self.tracer = tracer if tracer is not None else Tracer(env)
        self.events = events if events is not None else EventLog(env)
        # Precomputed span names keep the disabled-tracing path free of
        # per-request string formatting.
        self._queue_span_name = f"faas.queue {name}"
        self._exec_span_name = f"faas.execute {name}"
        #: The engine's span round one offload to this service.
        self.offload_span_name = f"task.offload {name}"
        self.invocations = 0
        self.completed = 0
        self.errors = 0
        self.cold_starts = 0
        self.busy_time = 0.0
        # Chaos-plane slowdown multipliers (1.0 = healthy).  Checked with
        # one truthiness branch per request when no fault is injected.
        self._slow_factor = 1.0
        self._node_slow: dict[str, float] = {}

    # -- fault injection (chaos plane) --------------------------------------

    def set_slowdown(self, factor: float, node: str | None = None) -> None:
        """Multiply charged execution time by ``factor`` — service-wide,
        or only for pods on ``node`` (a saturated/overheating host)."""
        if factor <= 0:
            raise ValidationError(f"slowdown factor must be > 0, got {factor}")
        if node is None:
            self._slow_factor = factor
        else:
            self._node_slow[node] = factor

    def clear_slowdown(self, node: str | None = None) -> None:
        if node is None:
            self._slow_factor = 1.0
            self._node_slow.clear()
        else:
            self._node_slow.pop(node, None)

    # -- engine-specific capacity management --------------------------------

    @abc.abstractmethod
    def _acquire_pod(
        self, task: InvocationTask, waits: list[int] | None
    ) -> Generator[Any, Any, Pod]:
        """Yield until a pod is available for one more request.

        Before yielding, an engine calls :meth:`_waiting` with ``task``
        and ``waits``, so the wait is a ``faas.queue`` span of the
        requesting trace (and a cold start nests under it).
        """

    def _waiting(self, task: InvocationTask, waits: list[int] | None) -> int | None:
        """``task`` is about to wait for a pod or a slot: open its
        ``faas.queue`` span, once, into ``waits`` (``None``: untraced),
        and return it.  A request that waits for nothing has no queue
        span."""
        if waits is None:
            return None
        if not waits:
            waits.append(
                self.tracer.start(
                    task.trace_id or task.request_id,
                    self._queue_span_name,
                    parent=task.trace_parent,
                )
            )
        return waits[0]

    def stop(self) -> None:
        """Stop the service's autoscaler, if it has one (teardown)."""

    def set_floor(self, replicas: int) -> None:
        """Move the floor and scale up to it; with no autoscaler, scale
        to exactly the floor (at least one replica)."""
        self.min_scale = replicas
        if not self.autoscaled or self.deployment.replicas < replicas:
            self.deployment.scale(max(1, replicas))

    # -- shared execution core ----------------------------------------------

    def invoke(self, task: InvocationTask) -> Process:
        """Run ``task``; the process resolves to a :class:`TaskCompletion`.

        Application failures become failed completions; only platform
        failures (no capacity at all) raise :class:`InvocationError`.
        """
        return self.env.process(self.invoke_steps(task))

    def invoke_steps(
        self, task: InvocationTask
    ) -> Generator[Any, Any, TaskCompletion]:
        """The body of :meth:`invoke`, for a caller that is already a
        process and only waits for the completion: ``completion = yield
        from service.invoke_steps(task)`` — same steps, same simulated
        times, no child process.  A caller that races the offload
        against a deadline needs the process: use :meth:`invoke`."""
        self.invocations += 1
        # Traced: the queue span, once the request waits.
        waits: list[int] | None = [] if self.tracer.enabled else None
        pod = yield from self._acquire_pod(task, waits)
        slot = pod.slots.request()
        if waits is not None and not slot.triggered:
            self._waiting(task, waits)
        yield slot
        exec_span = None
        if waits is not None:
            if waits:
                self.tracer.finish(waits[0], pod=pod.name)
            exec_span = self.tracer.start(
                task.trace_id or task.request_id,
                self._exec_span_name,
                parent=task.trace_parent,
                pod=pod.name,
                node=pod.node,
            )
        started = self.env.now
        try:
            # Inside the slot's ``try``: a service-time model that raises
            # (or returns a bad value) must not keep the slot.
            duration = self.model.request_overhead_s + self.entry.service_time(task)
            if self._node_slow or self._slow_factor != 1.0:
                duration *= self._slow_factor * self._node_slow.get(pod.node, 1.0)
            yield self.env.timeout(duration)
            completion = yield from self._run_handler(task)
        finally:
            self.busy_time += self.env.now - started
            pod.slots.release()
        if exec_span is not None:
            self.tracer.finish(exec_span, ok=completion.ok)
        if completion.error is None:
            self.completed += 1
        else:
            self.errors += 1
        return completion

    def _run_handler(self, task: InvocationTask) -> Generator[Any, Any, TaskCompletion]:
        ctx = TaskContext(task, services=self.services)
        try:
            if self.entry.is_generator_handler:
                result = yield from self.entry.handler(ctx)
            else:
                result = self.entry.handler(ctx)
                if inspect.isgenerator(result):
                    result = yield from result
        except Exception as exc:  # noqa: BLE001 - user code boundary
            return TaskCompletion.failure(
                task.request_id, f"{type(exc).__name__}: {exc}"
            )
        if type(result) is dict or result is None:
            return ctx.completion(result)
        if isinstance(result, TaskCompletion):
            return result
        if isinstance(result, Mapping):
            return ctx.completion(result)
        return TaskCompletion.failure(
            task.request_id,
            f"handler for {task.image!r} returned {type(result).__name__}; "
            "expected a mapping, TaskCompletion, or None",
        )

    # -- introspection --------------------------------------------------------

    @property
    def replicas(self) -> int:
        return self.deployment.replicas

    @property
    def ready_replicas(self) -> int:
        return self.deployment.ready_replicas

    def total_in_flight(self) -> int:
        return self.deployment.total_in_flight()


class FaasEngine:
    """A pluggable code-execution runtime: one row per engine, naming
    the service it deploys and the model that prices its data path."""

    service_type: type[FunctionService]
    model_type: type[EngineModel]

    def __init__(
        self,
        env: Environment,
        scheduler: Scheduler,
        registry: FunctionRegistry,
        model: EngineModel | None = None,
        tracer: Tracer | None = None,
        events: EventLog | None = None,
    ) -> None:
        self.env = env
        self.scheduler = scheduler
        self.registry = registry
        self.model = model or self.model_type()
        self.tracer = tracer
        self.events = events
        self._services: dict[str, FunctionService] = {}

    def deploy(
        self,
        name: str,
        definition: FunctionDefinition,
        services: Mapping[str, Any] | None = None,
        node_hints: list[str] | None = None,
    ) -> FunctionService:
        """Create (and register) a service running ``definition``."""
        if name in self._services:
            raise ValidationError(f"service {name!r} already deployed")
        svc = self.service_type(
            self.env,
            name,
            definition,
            self.registry.get(definition.image),
            self.scheduler,
            self.model,
            services=services,
            node_hints=node_hints,
            tracer=self.tracer,
            events=self.events,
        )
        self._services[name] = svc
        return svc

    def service(self, name: str) -> FunctionService:
        svc = self._services.get(name)
        if svc is None:
            raise InvocationError(f"no service {name!r} deployed on this engine")
        return svc

    def __contains__(self, name: str) -> bool:
        return name in self._services

    @property
    def service_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._services))

    def delete(self, name: str) -> None:
        svc = self._services.pop(name, None)
        if svc is not None:
            svc.stop()
            svc.deployment.delete()
