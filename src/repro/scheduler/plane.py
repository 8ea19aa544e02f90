"""The scheduler plane: an explicit worker-pool control plane.

This is the scheduler half of the split the tutorial paper describes —
the platform component that owns *run state* (which invocation lives
where) and *worker state* (who is registered, healthy, draining, dead),
so that developers never see deployment, scaling, or failure handling.
Like every plane it is **off by default** (``SchedulerConfig.enabled``);
when off, async dispatch runs the same :class:`DispatchCore` over a
:class:`~repro.scheduler.worker.StaticPool` of in-process ports that
records no ``scheduler.*`` events.

The plane is the **sim transport** of the worker protocol: the
dispatch/ledger/fencing state machine *and the worker lifecycle* live
in :class:`~repro.scheduler.transport.core.DispatchCore` (shared with
the real asyncio transport in :mod:`repro.scheduler.transport.aio`),
and this class supplies the sim-kernel half — worker pods, the health
sweep's timer as a sim process, pool replacement, chaos seams, and
platform hooks.

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
* a monitor process sweeps heartbeats: the core degrades silent workers
  (new dispatch stops, queued work is rebound) and declares
  persistently silent workers dead — fencing their epoch and requeueing
  everything they held, so *an accepted invocation is never lost and
  never completed twice* no matter how workers fail;
* drain performs a graceful handoff: queued items move to peers, the
  in-flight invocation finishes normally, then the worker retires;
* a worker that died — crashed or drained — is replaced while the
  plane runs (``replace_dead_workers``).

Every lifecycle moment is recorded as a ``scheduler.*`` platform event,
which is what the conformance harness replays and asserts over.  A
lifecycle moment is a point in time, not a wait, so it is no span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from repro.errors import SchedulingError, ValidationError
from repro.http import HttpRequest, HttpResponse
from repro.invoker.request import InvocationRequest
from repro.monitoring.events import EventLog
from repro.orchestrator.pod import PodSpec
from repro.orchestrator.resources import ResourceSpec
from repro.plane import Plane
from repro.scheduler.transport.core import DispatchCore, workers_route
from repro.scheduler.worker import SimWorker
from repro.sim.kernel import Environment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.invoker.engine import InvocationEngine
    from repro.orchestrator.cluster import Cluster
    from repro.orchestrator.scheduler import Scheduler
    from repro.qos.plane import QosPlane
    from repro.scheduler.ledger import InvocationLedger

__all__ = ["SchedulerConfig", "SchedulerPlane"]

#: Image name worker pods are stamped from, and what each one requests.
WORKER_IMAGE = "oaas/worker-runtime"
WORKER_RESOURCES = ResourceSpec(cpu_millis=100, memory_mb=128)

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


class SchedulerPlane(Plane):
    """Owns worker registrations, per-worker queues, and the run ledger."""

    name = "scheduler"

    def __init__(
        self,
        env: Environment,
        engine: "InvocationEngine",
        cluster: "Cluster",
        pod_scheduler: "Scheduler",
        *,
        events: "EventLog | None" = None,
        config: SchedulerConfig | None = None,
        qos: "QosPlane | None" = None,
    ) -> None:
        self.env = env
        self.engine = engine
        self.cluster = cluster
        self.pod_scheduler = pod_scheduler
        self.events = events
        self.config = config or SchedulerConfig(enabled=True)
        self.qos = qos
        #: Lifecycle narration: one ``scheduler.*`` event row per action.
        self._emit = (events if events is not None else EventLog(env)).record
        self.core = DispatchCore(clock=lambda: self.env.now, emit=self._emit)
        self.core.on_worker_dead = self._maybe_replace
        self._next_worker = 0
        self._running = False

    # -- shared-core views ---------------------------------------------------

    @property
    def ledger(self) -> "InvocationLedger":
        return self.core.ledger

    @property
    def workers(self) -> dict[str, SimWorker]:
        return self.core.workers  # type: ignore[return-value]

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
        for _, worker in sorted(self.workers.items()):
            worker.halt()
        return report

    def register_worker(self, name: str | None = None) -> SimWorker:
        """Admit one worker: place its pod, start its processes."""
        if name is None:
            # Skip names taken by explicit registrations (rejoins under a
            # chosen name) so auto-naming never collides.
            while True:
                name = f"worker-{self._next_worker}"
                self._next_worker += 1
                if name not in self.workers:
                    break
        if name in self.workers:
            raise SchedulingError(f"worker {name!r} is already registered")
        spec = PodSpec(
            image=WORKER_IMAGE,
            resources=WORKER_RESOURCES,
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

    # -- health monitoring --------------------------------------------------

    def _monitor(self) -> Generator:
        config = self.config
        while self._running:
            yield self.env.timeout(config.heartbeat_interval_s)
            if not self._running:
                return
            self.core.sweep(
                config.heartbeat_interval_s,
                config.degraded_after_misses,
                config.dead_after_misses,
            )

    # -- drain / crash / node failure ---------------------------------------

    def drain_worker(self, name: str) -> SimWorker:
        return self.core.drain(name)  # type: ignore[return-value]

    def crash_worker(self, name: str, reason: str = "crash") -> bool:
        return self.core.crash(name, reason)

    def node_failed(self, node: str, stats: Any) -> None:
        """Platform hook: every worker on a failed node dies with it."""
        for name in sorted(self.workers):
            if self.workers[name].node == node:
                self.core.crash(name, "node-failure")

    def _maybe_replace(self, worker: SimWorker, reason: str) -> None:
        """The core's ``on_worker_dead``: top the pool back up."""
        if not self.config.replace_dead_workers or not self._running:
            return
        for _ in range(self.config.pool_size - self.core.live_workers):
            self.register_worker()

    # -- chaos seams --------------------------------------------------------

    def suppress_heartbeats(self, name: str, duration_s: float) -> bool:
        worker = self.workers.get(name)
        if worker is None:
            return False
        worker.suppress_heartbeats(duration_s)
        return True

    def resume_heartbeats(self, name: str) -> bool:
        worker = self.workers.get(name)
        if worker is None:
            return False
        worker.resume_heartbeats()
        return True

    def set_worker_slow(self, name: str, factor: float) -> bool:
        worker = self.workers.get(name)
        if worker is None:
            return False
        worker.slow_factor = factor
        return True

    def clear_worker_slow(self, name: str) -> bool:
        # Same guard as set_worker_slow/resume_heartbeats: a chaos revert
        # on a dead (so unlisted) worker must not report success.
        worker = self.workers.get(name)
        if worker is None:
            return False
        worker.slow_factor = 1.0
        return True

    # -- platform hooks -----------------------------------------------------

    def class_changed(self, cls: str, runtime: Any | None) -> None:
        self.core.class_changed(cls, runtime)

    def stats(self) -> dict[str, Any]:
        return self.core.stats()

    def admin_route(self, http: HttpRequest) -> HttpResponse | None:
        """``GET /api/workers`` and ``POST /api/workers/{name}/drain``."""
        return workers_route(self.core, http)
