"""The scheduler plane: an explicit worker-pool control plane.

This is the scheduler half of the split the tutorial paper describes —
the platform component that owns *run state* (which invocation lives
where) and *worker state* (who is registered, healthy, draining, dead),
so that developers never see deployment, scaling, or failure handling.
Like every plane it is **off by default** (``SchedulerConfig.enabled``);
when off, async dispatch runs the same :class:`DispatchCore` over a
:class:`~repro.scheduler.worker.StaticPool` of in-process ports that
records no ``scheduler.*`` events or spans.

The plane is the **sim transport** of the worker protocol: the
dispatch/ledger/fencing state machine lives in
:class:`~repro.scheduler.transport.core.DispatchCore` (shared with the
real asyncio transport in :mod:`repro.scheduler.transport.aio`), and
this class supplies the sim-kernel half — worker pods, heartbeat
monitoring as a sim process, chaos seams, and platform hooks.

When enabled:

* the plane registers ``pool_size`` workers at startup, each bound to a
  pod placed through the orchestrator's pod scheduler (so node failures
  reach workers through the same seam deployments use);
* :class:`~repro.invoker.queue.AsyncInvoker` submits to this plane's
  core — each request is accepted into its
  :class:`~repro.scheduler.ledger.InvocationLedger` and dispatched to
  exactly one READY worker chosen by rendezvous hashing over the object
  id (stable per-object affinity, minimal movement when the pool
  changes); with the QoS plane also on, every worker's queue is a
  weighted-fair queue the overload controller can shed from;
* a monitor process watches heartbeats, degrades silent workers (new
  dispatch stops, queued work is rebound), and declares persistently
  silent workers dead — fencing their epoch and requeueing everything
  they held, so *an accepted invocation is never lost and never
  completed twice* no matter how workers fail;
* drain performs a graceful handoff: queued items move to peers, the
  in-flight invocation finishes normally, then the worker retires and
  (optionally) a replacement registers.

Every lifecycle moment is recorded as a ``scheduler.*`` platform event
(and an instantaneous span under the ``"scheduler"`` trace), which is
what the conformance harness replays and asserts over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from repro.errors import SchedulingError, ValidationError
from repro.invoker.request import InvocationRequest
from repro.orchestrator.pod import PodSpec
from repro.orchestrator.resources import ResourceSpec
from repro.scheduler.state import WorkerState
from repro.scheduler.transport.core import DispatchCore
from repro.scheduler.worker import SimWorker
from repro.sim.kernel import Environment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.invoker.engine import InvocationEngine
    from repro.monitoring.events import EventLog
    from repro.monitoring.tracing import Tracer
    from repro.orchestrator.cluster import Cluster
    from repro.orchestrator.scheduler import Scheduler
    from repro.qos.plane import QosPlane
    from repro.scheduler.ledger import InvocationLedger

__all__ = ["SchedulerConfig", "SchedulerPlane"]

#: Scheduler lifecycle spans share one synthetic trace (like ``"chaos"``).
SCHEDULER_TRACE_ID = "scheduler"

#: Image name worker pods are stamped from.
WORKER_IMAGE = "oaas/worker-runtime"

#: The transports the scheduler protocol can be spoken over.
TRANSPORTS = ("sim", "asyncio")


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs for the worker-pool control plane (disabled by default)."""

    enabled: bool = False
    #: ``"sim"`` runs the plane on the simulation kernel (default);
    #: ``"asyncio"`` leaves the sim dispatch path at baseline and serves
    #: the same protocol over real event-loop connections via
    #: :meth:`Oparaca.serve_http` / :class:`AsyncSchedulerServer`.
    transport: str = "sim"
    pool_size: int = 4
    heartbeat_interval_s: float = 0.5
    degraded_after_misses: int = 2
    dead_after_misses: int = 5
    register_delay_s: float = 0.02
    install_delay_s: float = 0.05
    dispatch_overhead_s: float = 0.0
    replace_dead_workers: bool = True
    worker_cpu_millis: int = 100
    worker_memory_mb: int = 128

    def __post_init__(self) -> None:
        if self.transport not in TRANSPORTS:
            raise ValidationError(
                f"scheduler transport must be one of {TRANSPORTS}, "
                f"got {self.transport!r}"
            )
        if self.pool_size < 1:
            raise ValidationError("scheduler pool_size must be >= 1")
        if self.heartbeat_interval_s <= 0:
            raise ValidationError("heartbeat_interval_s must be positive")
        if self.degraded_after_misses < 1:
            raise ValidationError("degraded_after_misses must be >= 1")
        if self.dead_after_misses <= self.degraded_after_misses:
            raise ValidationError(
                "dead_after_misses must exceed degraded_after_misses"
            )
        for field_name in ("register_delay_s", "install_delay_s", "dispatch_overhead_s"):
            if getattr(self, field_name) < 0:
                raise ValidationError(f"{field_name} must be >= 0")
        if self.worker_cpu_millis < 1 or self.worker_memory_mb < 1:
            raise ValidationError("worker pod resources must be positive")


class SchedulerPlane:
    """Owns worker registrations, per-worker queues, and the run ledger."""

    def __init__(
        self,
        env: Environment,
        engine: "InvocationEngine",
        cluster: "Cluster",
        pod_scheduler: "Scheduler",
        *,
        events: "EventLog | None" = None,
        tracer: "Tracer | None" = None,
        config: SchedulerConfig | None = None,
        qos: "QosPlane | None" = None,
    ) -> None:
        self.env = env
        self.engine = engine
        self.cluster = cluster
        self.pod_scheduler = pod_scheduler
        self.events = events
        self.tracer = tracer
        self.config = config or SchedulerConfig(enabled=True)
        self.qos = qos
        self.core = DispatchCore(clock=lambda: self.env.now, emit=self._emit)
        self.heartbeats = 0
        self._next_worker = 0
        self._running = False

    # -- shared-core views ---------------------------------------------------

    @property
    def ledger(self) -> "InvocationLedger":
        return self.core.ledger

    @property
    def workers(self) -> dict[str, SimWorker]:
        return self.core.workers  # type: ignore[return-value]

    @property
    def all_workers(self) -> list[SimWorker]:
        return self.core.registrations  # type: ignore[return-value]

    @property
    def dispatched(self) -> int:
        return self.core.dispatched

    @property
    def delivered(self) -> int:
        return self.core.delivered

    @property
    def parked_total(self) -> int:
        return self.core.parked_total

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Register the initial pool and start the heartbeat monitor."""
        if self._running:
            return
        self._running = True
        for _ in range(self.config.pool_size):
            self.register_worker()
        self.env.process(self._monitor())

    def stop(self) -> dict[str, int]:
        """Stop the plane: report what was still pending (with the parked
        subset broken out) and halt every live worker's heartbeat and
        work-loop processes so nothing of the plane stays scheduled on
        the kernel."""
        report = self.core.stop_report()
        if not self._running:
            return report
        self._running = False
        for name in sorted(self.workers):
            worker = self.workers[name]
            if not worker.machine.is_dead:
                worker.halt()
        return report

    def deployed_classes(self) -> list[str]:
        return self.core.deployed_classes()

    def register_worker(self, name: str | None = None) -> SimWorker:
        """Admit one worker: place its pod, start its processes."""
        if name is None:
            # Skip names taken by explicit registrations (rejoins under a
            # chosen name) so auto-naming never collides.
            while True:
                name = f"worker-{self._next_worker}"
                self._next_worker += 1
                current = self.workers.get(name)
                if current is None or current.machine.is_dead:
                    break
        current = self.workers.get(name)
        if current is not None and not current.machine.is_dead:
            raise SchedulingError(f"worker {name!r} is already registered")
        spec = PodSpec(
            image=WORKER_IMAGE,
            resources=ResourceSpec(
                self.config.worker_cpu_millis, self.config.worker_memory_mb
            ),
            concurrency=1,
            labels={"app": "oaas-worker", "worker": name},
        )
        pod = self.pod_scheduler.schedule(spec)
        worker = SimWorker(self.env, name, self, pod=pod)
        self.core.add_worker(worker)
        self._emit("scheduler.register", worker=name, node=worker.node)
        return worker

    # -- dispatch path ------------------------------------------------------

    def submit(self, request: InvocationRequest) -> None:
        """Accept one invocation into the ledger and route it."""
        self.core.submit(request)

    # -- worker callbacks ---------------------------------------------------

    def on_worker_ready(self, worker: SimWorker) -> None:
        worker.machine.transition(WorkerState.READY, self.env.now, "activated")
        worker.last_beat = self.env.now
        self._emit("scheduler.ready", worker=worker.name, node=worker.node)
        self.core.flush_unassigned()

    def on_worker_installed(self, worker: SimWorker, cls: str) -> None:
        self._emit("scheduler.install", worker=worker.name, cls=cls)
        if worker.machine.is_dispatchable:
            self.core.flush_unassigned()

    def on_worker_drained(self, worker: SimWorker) -> None:
        """The work loop emptied out after a drain: retire the worker."""
        self._retire(worker, "drained")

    def heartbeat(self, worker: SimWorker) -> None:
        if self.workers.get(worker.name) is not worker:
            return  # a fenced registration's stale beat
        worker.last_beat = self.env.now
        self.heartbeats += 1
        if worker.machine.state is WorkerState.DEGRADED:
            worker.machine.transition(
                WorkerState.READY, self.env.now, "heartbeat-resumed"
            )
            self._emit("scheduler.recovered", worker=worker.name)
            self.core.flush_unassigned()

    # -- health monitoring --------------------------------------------------

    def _monitor(self) -> Generator:
        interval = self.config.heartbeat_interval_s
        while self._running:
            yield self.env.timeout(interval)
            if not self._running:
                return
            now = self.env.now
            for name in sorted(self.workers):
                worker = self.workers[name]
                if worker.machine.state not in (
                    WorkerState.READY,
                    WorkerState.DEGRADED,
                ):
                    continue
                silent_for = now - worker.last_beat
                if silent_for >= self.config.dead_after_misses * interval - 1e-9:
                    self.crash_worker(name, reason="heartbeat-timeout")
                elif (
                    worker.machine.state is WorkerState.READY
                    and silent_for
                    >= self.config.degraded_after_misses * interval - 1e-9
                ):
                    self._degrade(worker)

    def _degrade(self, worker: SimWorker) -> None:
        worker.machine.transition(
            WorkerState.DEGRADED, self.env.now, "missed-heartbeats"
        )
        self._emit("scheduler.degraded", worker=worker.name)
        self._rebind_queued(worker, "degraded")

    def _rebind_queued(self, worker: SimWorker, reason: str) -> None:
        """Move everything *queued* (not in-flight) off ``worker``."""
        moved = self.core.reroute(worker.name, worker.take_queue())
        if moved:
            self._emit(
                "scheduler.rebind", worker=worker.name, moved=moved, reason=reason
            )

    # -- drain / crash / node failure ---------------------------------------

    def drain_worker(self, name: str) -> SimWorker:
        """Gracefully retire ``name``: hand queued work to peers, let the
        in-flight invocation finish, then terminate the pod."""
        worker = self.workers.get(name)
        if worker is None:
            raise SchedulingError(f"unknown worker {name!r}")
        if worker.machine.state is WorkerState.DRAINING:
            return worker
        if not worker.machine.can_transition(WorkerState.DRAINING):
            raise SchedulingError(
                f"worker {name!r} cannot drain from {worker.state.value}"
            )
        worker.machine.transition(WorkerState.DRAINING, self.env.now, "drain")
        self._emit("scheduler.draining", worker=name)
        self._rebind_queued(worker, "drain-handoff")
        worker.drain()
        return worker

    def crash_worker(self, name: str, reason: str = "crash") -> bool:
        """Declare ``name`` dead *now* (fault injection or heartbeat
        timeout): fence its epoch and requeue everything it held."""
        worker = self.workers.get(name)
        if worker is None or worker.machine.is_dead:
            return False
        dropped = worker.crash()
        worker.machine.transition(WorkerState.DEAD, self.env.now, reason)
        self._emit(
            "scheduler.dead", worker=name, reason=reason, requeued=len(dropped)
        )
        self._teardown(worker)
        self.core.reroute(name, dropped)
        self._maybe_replace()
        return True

    def on_node_failed(self, node: str) -> None:
        """Platform hook: every worker on a failed node dies with it."""
        for name in sorted(self.workers):
            worker = self.workers[name]
            if worker.node == node and not worker.machine.is_dead:
                self.crash_worker(name, reason="node-failure")

    def _retire(self, worker: SimWorker, reason: str) -> None:
        worker.machine.transition(WorkerState.DEAD, self.env.now, reason)
        self._emit("scheduler.dead", worker=worker.name, reason=reason, requeued=0)
        self._teardown(worker)
        self._maybe_replace()

    def _teardown(self, worker: SimWorker) -> None:
        """A worker just went DEAD: release its queue and its pod."""
        if self.qos is not None:
            self.qos.retire_queue(worker.queue)
        if worker.pod is None:
            return
        if self.cluster.pod(worker.pod.name) is worker.pod:
            self.cluster.terminate_pod(worker.pod.name)

    def _maybe_replace(self) -> None:
        if not self.config.replace_dead_workers or not self._running:
            return
        live = sum(
            1 for worker in self.workers.values() if not worker.machine.is_dead
        )
        while live < self.config.pool_size:
            self.register_worker()
            live += 1

    # -- chaos seams --------------------------------------------------------

    def suppress_heartbeats(self, name: str, duration_s: float) -> bool:
        worker = self.workers.get(name)
        if worker is None or worker.machine.is_dead:
            return False
        worker.suppress_heartbeats(duration_s)
        return True

    def resume_heartbeats(self, name: str) -> bool:
        worker = self.workers.get(name)
        if worker is None or worker.machine.is_dead:
            return False
        worker.resume_heartbeats()
        return True

    def set_worker_slow(self, name: str, factor: float) -> bool:
        worker = self.workers.get(name)
        if worker is None or worker.machine.is_dead:
            return False
        worker.slow_factor = factor
        return True

    def clear_worker_slow(self, name: str) -> bool:
        # Same guard as set_worker_slow/resume_heartbeats: a chaos revert
        # on a dead worker must not report success.
        worker = self.workers.get(name)
        if worker is None or worker.machine.is_dead:
            return False
        worker.slow_factor = 1.0
        return True

    # -- platform hooks -----------------------------------------------------

    def on_deploy(self, cls: str) -> None:
        """A class runtime was (re)deployed: install it everywhere."""
        self.core.note_class(cls)
        for _, worker in sorted(self.workers.items()):
            if not worker.machine.is_dead:
                worker.install(cls)

    @property
    def outstanding(self) -> int:
        return self.core.outstanding

    @property
    def live_workers(self) -> int:
        return self.core.live_workers

    def describe_workers(self) -> list[dict[str, Any]]:
        return [self.workers[name].describe() for name in sorted(self.workers)]

    def stats(self) -> dict[str, Any]:
        audit = self.ledger.audit()
        return {
            "workers": self.describe_workers(),
            "ledger": audit,
            "dispatched": self.dispatched,
            "delivered": self.delivered,
            "heartbeats": self.heartbeats,
            "parked": self.core.parked,
            "parked_total": self.parked_total,
            "registrations": len(self.all_workers),
            "live_workers": self.live_workers,
        }

    def collect_metrics(self, registry) -> None:
        """Metrics-plane pull hook: per-worker dispatch/completion
        counters and queue depths, labeled by worker, plus plane totals."""
        from repro.monitoring.plane import set_counter

        for name in sorted(self.workers):
            worker = self.workers[name]
            labels = {"worker": name, "plane": "scheduler"}
            set_counter(
                registry, "scheduler.dispatched", float(worker.dispatched_count), labels
            )
            set_counter(
                registry, "scheduler.completed", float(worker.completed_count), labels
            )
            set_counter(
                registry, "scheduler.heartbeats", float(worker.heartbeats_sent), labels
            )
            registry.gauge("scheduler.queue_depth", labels).set(
                float(worker.queue.depth())
            )
            registry.gauge("scheduler.worker_phase", labels).set(
                float(worker.machine.phase)
            )
        totals = {"plane": "scheduler"}
        audit = self.ledger.audit()
        set_counter(registry, "scheduler.accepted", float(audit["accepted"]), totals)
        set_counter(registry, "scheduler.requeues", float(audit["requeues"]), totals)
        set_counter(
            registry, "scheduler.suppressed", float(audit["suppressed"]), totals
        )
        registry.gauge("scheduler.outstanding", totals).set(
            float(audit["outstanding"])
        )
        registry.gauge("scheduler.parked", totals).set(float(self.core.parked))

    # -- internals ----------------------------------------------------------

    def _emit(self, type: str, **fields: Any) -> None:
        if self.events is not None:
            self.events.record(type, **fields)
        if self.tracer is not None and self.tracer.enabled:
            span = self.tracer.start(SCHEDULER_TRACE_ID, type, **fields)
            self.tracer.finish(span)
