"""Sim-side worker ports: the serial work loop and its two pools.

:class:`QueueWorker` is the execution half every sim-kernel port
shares: a :class:`~repro.qos.fairqueue.WeightedFairQueue` drained one
item at a time through the invocation engine, so all invocations routed
to one port (and therefore all invocations of one object, which hash to
one port) execute in order.  With QoS off everything is pushed under
one flow key with no deadline — plain FIFO; with QoS on the queue comes
from :meth:`QosPlane.new_fair_queue`, so DRR weights, EDF, the
queue-delay histogram and the overload controller act inside whichever
pool is running.

Two pools stand on it:

* :class:`StaticPool` — the baseline: a fixed set of always-READY
  in-process ports.  No pods, no heartbeats, no lifecycle events.
* :class:`SimWorker` — the scheduler plane's
  :class:`~repro.scheduler.transport.core.WorkerPort`, adding a pod, an
  **activation** process (registration delay, then one timed package
  install per deployed class, then the READY report) and a
  **heartbeat** process (periodic beats, which chaos can suppress
  (``HeartbeatLoss``) without stopping execution, producing the
  zombie-worker case the scheduler must fence).  It reports to the
  plane's :class:`DispatchCore`, which owns what each report means.

Epoch fencing makes crash recovery lossless *and* duplicate-free: every
dispatched item carries the worker's epoch; :meth:`QueueWorker.crash`
bumps the epoch before the scheduler requeues the in-flight item, so
when the orphaned execution eventually completes, the work loop
discards its result instead of reporting a second completion.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.invoker.request import InvocationRequest, InvocationResult
from repro.qos.fairqueue import WeightedFairQueue
from repro.scheduler.state import WorkerState, WorkerStateMachine
from repro.scheduler.transport.core import DispatchCore, DispatchItem, request_class
from repro.sim.kernel import Environment, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.invoker.engine import InvocationEngine
    from repro.orchestrator.pod import Pod
    from repro.qos.plane import QosPlane
    from repro.scheduler.plane import SchedulerPlane

__all__ = ["DispatchItem", "QueueWorker", "SimWorker", "StaticPool"]

#: Ports in the baseline pool (the historical async partition count).
STATIC_POOL_SIZE = 8

#: The one flow key everything queues under when QoS is off.
FIFO_FLOW = ""


class _EveryClass:
    """``installed`` of an in-process port: the engine it calls resolves
    every deployed class itself and fails an unknown one with a typed
    result, so nothing is ever "not installed yet" (and nothing is ever
    installed: a static port has no lifecycle)."""

    def __contains__(self, cls: object) -> bool:
        return True


class QueueWorker:
    """One worker port: fair queue + serial work loop + epoch fence."""

    def __init__(
        self,
        env: Environment,
        name: str,
        engine: "InvocationEngine",
        complete: Callable[[str, InvocationRequest, InvocationResult], Any],
        *,
        qos: "QosPlane | None" = None,
        state: WorkerState = WorkerState.REGISTERED,
        dispatch_overhead_s: float = 0.0,
    ) -> None:
        self.env = env
        self.name = name
        self.engine = engine
        self.qos = qos
        self.machine = WorkerStateMachine(state)
        self.epoch = 0
        self.installed: set[str] = set()
        self.queue = qos.new_fair_queue() if qos is not None else WeightedFairQueue(env)
        self.in_flight: DispatchItem | None = None
        self.dispatched_count = 0
        self.completed_count = 0
        self.slow_factor = 1.0
        self.dispatch_overhead_s = dispatch_overhead_s
        self._complete = complete
        self._halted = False
        self._wake: Event | None = None
        env.process(self._work_loop())

    # -- dispatch-core-facing control ---------------------------------------

    def push(self, item: DispatchItem) -> None:
        """Accept one dispatched item onto the local queue."""
        if self.qos is None:
            self.queue.push(FIFO_FLOW, item)
        else:
            cls = request_class(item.request) or ""
            self.queue.push(cls, item, deadline_s=self.qos.deadline_for(cls))
        self.dispatched_count += 1
        self._wake_up()

    @property
    def queue_depth(self) -> int:
        return self.queue.depth()

    def take_queue(self) -> list[DispatchItem]:
        """Hand back everything queued, in service order (drain/rebind
        handoff)."""
        return [queued.value for queued in self.queue.drain()]

    def crash(self) -> list[DispatchItem]:
        """Die immediately: fence the epoch and return every item this
        worker still held (queued + in-flight) for the scheduler to
        requeue.  The orphaned in-flight execution, if any, completes in
        the simulation but its result is discarded by the fence."""
        self.epoch += 1
        dropped = self.take_queue()
        if self.in_flight is not None:
            dropped.append(self.in_flight)
        self._wake_up()
        return dropped

    def halt(self) -> None:
        """Pool shutdown: end this worker's processes at their next
        scheduling point without emitting events or changing state, so
        nothing of the pool stays scheduled on the kernel."""
        self._halted = True
        self._wake_up()

    # -- sim processes ------------------------------------------------------

    def _wake_up(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed(None)

    def _on_drained(self) -> None:
        """The queue emptied out while DRAINING (pools with a lifecycle
        override this)."""

    def _work_loop(self) -> Generator:
        while True:
            if self.machine.is_dead or self._halted:
                return
            queued = self.queue.pop()
            if queued is None:
                if self.machine.state is WorkerState.DRAINING:
                    self._on_drained()
                    return
                self._wake = self.env.event()
                yield self._wake
                self._wake = None
                continue
            item: DispatchItem = queued.value
            self.in_flight = item
            if self.qos is not None:
                self.qos.record_queue_delay(
                    queued.cls, queued.queue_delay(self.env.now)
                )
            overhead = self.dispatch_overhead_s * self.slow_factor
            if overhead:
                yield self.env.timeout(overhead)
            result: InvocationResult = yield from self.engine.invoke_steps(
                item.request
            )
            self.in_flight = None
            if self._halted:
                return
            if self.machine.is_dead or item.epoch != self.epoch:
                # Fenced: the scheduler requeued this item when it
                # declared us dead; a redispatched attempt owns it now.
                return
            self.completed_count += 1
            self._complete(self.name, item.request, result)


class StaticPool:
    """The pool behind :class:`~repro.invoker.queue.AsyncInvoker` when
    no scheduler plane runs: a :class:`DispatchCore` over
    ``STATIC_POOL_SIZE`` always-READY in-process ports.  It narrates
    nothing — no pods, heartbeats, lifecycle events or spans."""

    def __init__(
        self,
        env: Environment,
        engine: "InvocationEngine",
        qos: "QosPlane | None" = None,
    ) -> None:
        self.core = DispatchCore(
            clock=lambda: env.now, emit=lambda type, **fields: None
        )
        for index in range(STATIC_POOL_SIZE):
            port = QueueWorker(
                env,
                f"static-{index}",
                engine,
                self.core.complete,
                qos=qos,
                state=WorkerState.READY,
            )
            port.installed = _EveryClass()  # type: ignore[assignment]
            self.core.add_worker(port)

    def stop(self) -> dict[str, int]:
        """Halt every port; returns ``{"pending": n}`` — submissions
        accepted but not fully processed (queued or mid-execution)."""
        for port in self.core.workers.values():
            port.halt()  # type: ignore[attr-defined]
        return {"pending": self.core.outstanding}


class SimWorker(QueueWorker):
    """One registered worker: a :class:`QueueWorker` with a pod, an
    activation process and heartbeats, reporting to the plane's core."""

    def __init__(
        self,
        env: Environment,
        name: str,
        plane: "SchedulerPlane",
        pod: "Pod | None" = None,
    ) -> None:
        super().__init__(
            env,
            name,
            plane.engine,
            plane.core.complete,
            qos=plane.qos,
            dispatch_overhead_s=plane.config.dispatch_overhead_s,
        )
        self.plane = plane
        self.core = plane.core
        self.pod = pod
        self.config = plane.config
        self.last_beat = env.now
        self.heartbeats_sent = 0
        self._suppress_until = -1.0
        self._pending_classes: deque[str] = deque(self.core.deployed_classes())
        env.process(self._activate())
        env.process(self._heartbeat_loop())

    # -- identity ----------------------------------------------------------

    @property
    def node(self) -> str | None:
        return self.pod.node if self.pod is not None else None

    @property
    def state(self) -> WorkerState:
        return self.machine.state

    # -- dispatch-core-facing control --------------------------------------

    def install(self, cls: str) -> None:
        """Install a class-runtime binding (timed package install)."""
        if cls in self.installed or cls in self._pending_classes:
            return
        if self.machine.state is WorkerState.REGISTERED:
            # Still activating: the activation process drains the list.
            self._pending_classes.append(cls)
        else:
            self.env.process(self._install(cls))

    def begin_drain(self) -> None:
        """The work loop finishes what is in flight, finds the queue
        handed off, and retires."""
        self._wake_up()

    def release(self) -> None:
        """Retire the QoS queue and terminate the pod."""
        if self.qos is not None:
            self.qos.retire_queue(self.queue)
        cluster = self.plane.cluster
        if self.pod is not None and cluster.pod(self.pod.name) is self.pod:
            cluster.terminate_pod(self.pod.name)

    # -- chaos seams --------------------------------------------------------

    def suppress_heartbeats(self, duration_s: float) -> None:
        self._suppress_until = self.env.now + duration_s

    def resume_heartbeats(self) -> None:
        self._suppress_until = self.env.now

    # -- sim processes ------------------------------------------------------

    def _on_drained(self) -> None:
        self.core.retire(self, "drained")

    def _activate(self) -> Generator:
        if self.config.register_delay_s:
            yield self.env.timeout(self.config.register_delay_s)
        while self._pending_classes and not self._halted:
            cls = self._pending_classes.popleft()
            yield from self._install(cls)
        if self.machine.state is WorkerState.REGISTERED and not self._halted:
            self.core.worker_ready(self)

    def _install(self, cls: str) -> Generator:
        if self.machine.is_dead or cls in self.installed:
            return
        if self.config.install_delay_s:
            yield self.env.timeout(self.config.install_delay_s)
        else:
            yield self.env.timeout(0)
        if self.machine.is_dead or self._halted or cls in self.installed:
            return
        self.core.worker_installed(self, cls)

    def _heartbeat_loop(self) -> Generator:
        while not self.machine.is_dead and not self._halted:
            yield self.env.timeout(self.config.heartbeat_interval_s)
            if self.machine.is_dead or self._halted:
                return
            if self.env.now < self._suppress_until:
                continue
            self.core.heartbeat(self)
