"""The transport-neutral half of the scheduler.

:class:`DispatchCore` owns everything about the worker pool that does
*not* depend on how workers are reached: the invocation ledger, the
deployed class list, the parked-request buffer, rendezvous worker
selection, the first-completion-wins delivery rule, and the worker
**lifecycle** — what happens when a worker reports ready, beats, goes
silent, is drained, crashes or retires.  Both transports drive this one
state machine:

* the **sim** transport (:class:`~repro.scheduler.plane.SchedulerPlane`)
  calls it with :class:`~repro.scheduler.worker.SimWorker` ports and the
  simulation clock;
* the **asyncio** transport
  (:class:`~repro.scheduler.transport.aio.AsyncSchedulerServer`) calls
  it with remote-connection ports and the event-loop clock.

On the sim kernel the core is the *only* way an async invocation
reaches the engine: :class:`~repro.invoker.queue.AsyncInvoker` submits
every accepted request here, over the scheduler plane's ``SimWorker``
pool when that plane is on and over a
:class:`~repro.scheduler.worker.StaticPool` of always-READY in-process
ports when it is off (those ports have no lifecycle: nothing sweeps
them and they are never installed on, drained or released).

A *worker port* (:class:`WorkerPort`) is what a transport genuinely
differs in: how a dispatch is delivered, how held work is handed back,
how an install or a drain is started, and what going away means (a pod
to terminate, a socket to close).  The conformance invariants —
exactly-once completion, dispatch-only-to-READY, phase-monotone
histories — are properties of this class, which is why they hold
identically over both transports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Protocol, Sequence, runtime_checkable

from repro.errors import SchedulingError
from repro.http import HttpRequest, HttpResponse
from repro.invoker.engine import split_object_id
from repro.scheduler.ledger import EntryState, InvocationLedger
from repro.scheduler.state import WorkerState, WorkerStateMachine
from repro.storage.hashring import stable_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.invoker.request import InvocationRequest, InvocationResult

__all__ = [
    "DispatchItem",
    "WorkerPort",
    "DispatchCore",
    "rendezvous_score",
    "request_class",
    "workers_route",
]


@dataclass(frozen=True)
class DispatchItem:
    """One invocation handed to a worker, fenced by its epoch."""

    request: "InvocationRequest"
    epoch: int
    dispatched_at: float


@runtime_checkable
class WorkerPort(Protocol):
    """What the dispatch core needs from a transport-side worker.  A
    pool with no lifecycle (``StaticPool``) gets by with what dispatch
    touches: ``name``, ``epoch``, ``installed``, ``machine``, ``push``."""

    name: str
    node: str | None
    epoch: int
    installed: set[str]
    machine: WorkerStateMachine
    last_beat: float
    dispatched_count: int
    completed_count: int
    heartbeats_sent: int

    @property
    def queue_depth(self) -> int: ...

    @property
    def in_flight(self) -> Any:
        """Truthy while the worker is executing something."""

    def push(self, item: DispatchItem) -> None:
        """Deliver one dispatch."""

    def take_queue(self) -> list[DispatchItem]:
        """Hand back what is queued (not in flight), in service order."""

    def crash(self) -> list[DispatchItem]:
        """Fence the epoch and give up everything held, queued and in
        flight; whatever the old epoch says afterwards is discarded."""

    def install(self, cls: str) -> None:
        """Start installing a class runtime; the transport reports back
        through :meth:`DispatchCore.worker_installed`."""

    def begin_drain(self) -> None:
        """Finish what is in flight, then have the transport call
        :meth:`DispatchCore.retire`."""

    def release(self) -> None:
        """The worker just went DEAD: free what the transport holds."""


def rendezvous_score(object_id: str, worker: str) -> int:
    """Stable per-(object, worker) weight for rendezvous hashing."""
    return stable_hash(f"{object_id}|{worker}")


def request_class(request: "InvocationRequest") -> str | None:
    """The class a request addresses: explicit, else its object id's."""
    return request.cls or split_object_id(request.object_id)[0]


class DispatchCore:
    """Ledger, routing, fencing and worker lifecycle shared by every
    transport."""

    def __init__(
        self,
        *,
        clock: Callable[[], float],
        emit: Callable[..., None],
    ) -> None:
        self.clock = clock
        self._emit = emit
        self.ledger = InvocationLedger()
        #: name -> *current* registration under that name (latest epoch).
        #: Never a DEAD one: :meth:`retire` drops the row once it has
        #: narrated ``scheduler.dead`` (the event log keeps the record).
        self.workers: dict[str, WorkerPort] = {}
        #: name -> the latest epoch held under that name: the one it
        #: registered with, then the fenced one it retired with.  A
        #: rejoin under the name must be handed a later one.
        self.epochs: dict[str, int] = {}
        #: Registrations ever made, counted: a port leaves with its row.
        self.registrations = 0
        self.on_complete: Callable[["InvocationRequest", "InvocationResult"], None] | None = None
        #: Told once per worker that went DEAD — crashed, timed out or
        #: finished draining — so the transport can replace it.
        self.on_worker_dead: Callable[[WorkerPort, str], None] | None = None
        self.dispatched = 0
        self.delivered = 0
        #: Completions reported for an id the ledger had already forgotten
        #: (past ``COMPLETION_HORIZON``): counted, never delivered.
        self.late = 0
        self.parked_total = 0
        self.heartbeats = 0
        self.retired = 0
        self._unassigned: deque["InvocationRequest"] = deque()
        self._classes: list[str] = []
        #: class (``None``: unknown) -> its eligible ports in name order,
        #: kept until a worker joins, changes phase or installs a class.
        self._eligible: dict[str | None, tuple[WorkerPort, ...]] = {}
        #: object id -> its rendezvous winner among ``_winners_pool``,
        #: the eligible ports of the latest pick.
        self._winners: dict[str, WorkerPort] = {}
        self._winners_pool: tuple[WorkerPort, ...] = ()

    # -- registration --------------------------------------------------------

    def add_worker(self, worker: WorkerPort) -> None:
        self.workers[worker.name] = worker
        self.epochs[worker.name] = worker.epoch
        self.registrations += 1
        worker.machine.on_transition = self._eligible.clear
        self._eligible.clear()

    def note_class(self, cls: str) -> None:
        """A class runtime was (re)deployed; remember it for eligibility."""
        if cls not in self._classes:
            self._classes.append(cls)

    def deployed_classes(self) -> list[str]:
        return list(self._classes)

    def class_deployed(self, cls: str) -> None:
        """A class runtime was (re)deployed: install it on every live
        worker."""
        self.note_class(cls)
        for _, worker in sorted(self.workers.items()):
            worker.install(cls)

    # -- dispatch path -------------------------------------------------------

    def submit(self, request: "InvocationRequest") -> None:
        """Accept one invocation into the ledger and route it."""
        self.ledger.accept(request, self.clock())
        self.route(request)

    def route(self, request: "InvocationRequest") -> None:
        worker = self.pick(request)
        if worker is None:
            # No eligible worker right now: park it.  Parked requests are
            # flushed whenever a worker becomes READY, finishes an
            # install, or recovers — never dropped.
            self._unassigned.append(request)
            self.parked_total += 1
            return
        self.dispatch(worker, request)

    def pick(self, request: "InvocationRequest") -> WorkerPort | None:
        # A class no worker has installed yet (a submit racing
        # ``on_deploy``) leaves ``eligible`` empty, so the request parks
        # until the install lands instead of running against a missing
        # runtime.  In-process ports install nothing: the engine they
        # call resolves every class (and fails unknown ones, typed).
        cls = request_class(request)
        pool = self._eligible.get(cls)
        if pool is None:
            pool = tuple(
                worker
                for _, worker in sorted(self.workers.items())
                if worker.machine.is_dispatchable
                and (cls is None or cls in worker.installed)
            )
            if not pool:
                # Not kept: a parked request is picked again when an
                # install lands, whoever reports it.
                return None
            self._eligible[cls] = pool
        # An object's rendezvous winner only moves when the eligible
        # pool does: score it against the pool once, not once per submit.
        if pool != self._winners_pool:
            self._winners_pool = pool
            self._winners.clear()
        winner = self._winners.get(request.object_id)
        if winner is None:
            winner = self._winners[request.object_id] = max(
                pool, key=lambda w: rendezvous_score(request.object_id, w.name)
            )
        return winner

    def dispatch(self, worker: WorkerPort, request: "InvocationRequest") -> None:
        entry = self.ledger.dispatch(request.request_id, worker.name, worker.epoch)
        item = DispatchItem(
            request=request, epoch=worker.epoch, dispatched_at=self.clock()
        )
        worker.push(item)
        self.dispatched += 1
        # Events carry the ledger seq, not the raw request id: request
        # ids are process-global, so seqs keep logs replay-identical.
        self._emit(
            "scheduler.dispatch",
            worker=worker.name,
            request=entry.seq,
            object=request.object_id,
            fn=request.fn_name,
        )

    def flush_unassigned(self) -> None:
        if not self._unassigned:
            return
        parked = list(self._unassigned)
        self._unassigned.clear()
        for request in parked:
            # A parked request may already be done — and, by now, forgotten:
            # it was rebound off a worker that had pulled it and went on
            # to complete it.
            entry = self.ledger.entry(request.request_id)
            if entry is not None and entry.state is not EntryState.COMPLETED:
                self.route(request)

    def reroute(self, worker_name: str, items: Sequence[DispatchItem]) -> int:
        """Requeue ``items`` taken off ``worker_name`` and route each one
        that was still dispatched there (the ledger's requeue guard drops
        completions that won the race and entries already moved)."""
        moved = 0
        for item in items:
            if self.ledger.requeue(item.request.request_id, worker_name):
                moved += 1
                self.route(item.request)
        return moved

    def complete(
        self,
        worker_name: str,
        request: "InvocationRequest",
        result: "InvocationResult",
    ) -> bool:
        """Record a worker's completion.  First completion wins;
        duplicates (a fenced attempt racing its redispatched twin) are
        suppressed.  Returns True when delivered."""
        if not self.settle(worker_name, request.request_id, result.ok):
            return False
        if self.on_complete is not None:
            self.on_complete(request, result)
        return True

    def settle(self, worker_name: str, request_id: str, ok: bool) -> bool:
        """Enter a completion in the ledger; True when it is the first
        (the caller delivers it).  A duplicate of a completion the ledger
        still holds is narrated as suppressed, one of a completion it has
        forgotten is counted ``late`` — neither is delivered or raised."""
        entry = self.ledger.entry(request_id)
        if entry is None:
            self.late += 1
            return False
        if not self.ledger.complete(request_id, ok, self.clock()):
            self._emit("scheduler.suppressed", worker=worker_name, request=entry.seq)
            return False
        self.delivered += 1
        self._emit("scheduler.complete", worker=worker_name, request=entry.seq, ok=ok)
        return True

    # -- worker lifecycle ----------------------------------------------------

    def worker_ready(self, worker: WorkerPort) -> None:
        """``worker`` finished activating and may be dispatched to."""
        now = self.clock()
        worker.machine.transition(WorkerState.READY, now, "activated")
        worker.last_beat = now
        self._emit("scheduler.ready", worker=worker.name, node=worker.node)
        self.flush_unassigned()

    def worker_installed(self, worker: WorkerPort, cls: str) -> None:
        worker.installed.add(cls)
        self._eligible.clear()
        self._emit("scheduler.install", worker=worker.name, cls=cls)
        if worker.machine.is_dispatchable:
            self.flush_unassigned()

    def heartbeat(self, worker: WorkerPort) -> None:
        if self.workers.get(worker.name) is not worker:
            return  # a fenced registration's stale beat
        now = self.clock()
        worker.last_beat = now
        worker.heartbeats_sent += 1
        self.heartbeats += 1
        if worker.machine.state is WorkerState.DEGRADED:
            worker.machine.transition(WorkerState.READY, now, "heartbeat-resumed")
            self._emit("scheduler.recovered", worker=worker.name)
            self.flush_unassigned()

    def sweep(
        self, interval_s: float, degraded_after_misses: int, dead_after_misses: int
    ) -> None:
        """One pass of the health monitor: degrade workers silent for
        ``degraded_after_misses`` beat intervals, declare dead those
        silent for ``dead_after_misses``."""
        now = self.clock()
        for name in sorted(self.workers):
            worker = self.workers[name]
            state = worker.machine.state
            if state not in (WorkerState.READY, WorkerState.DEGRADED):
                continue
            # The slack is for sim clocks, where beats and sweeps land on
            # sums of the same float interval.
            silent_for = now - worker.last_beat
            if silent_for >= dead_after_misses * interval_s - 1e-9:
                self.crash(name, "heartbeat-timeout")
            elif (
                state is WorkerState.READY
                and silent_for >= degraded_after_misses * interval_s - 1e-9
            ):
                self.degrade(worker)

    def degrade(self, worker: WorkerPort) -> None:
        """Stop dispatching to a silent worker and rebind what it has
        queued; what it is executing stays with it."""
        worker.machine.transition(
            WorkerState.DEGRADED, self.clock(), "missed-heartbeats"
        )
        self._emit("scheduler.degraded", worker=worker.name)
        self._rebind_queued(worker, "degraded")

    def _rebind_queued(self, worker: WorkerPort, reason: str) -> None:
        moved = self.reroute(worker.name, worker.take_queue())
        if moved:
            self._emit(
                "scheduler.rebind", worker=worker.name, moved=moved, reason=reason
            )

    def drain(self, name: str) -> WorkerPort:
        """Gracefully retire ``name``: hand queued work to peers, let
        the in-flight invocation finish, then the transport reports back
        through :meth:`retire`."""
        worker = self.workers.get(name)
        if worker is None:
            raise SchedulingError(f"unknown worker {name!r}")
        if worker.machine.state is WorkerState.DRAINING:
            return worker
        if not worker.machine.can_transition(WorkerState.DRAINING):
            raise SchedulingError(
                f"worker {name!r} cannot drain from {worker.machine.state.value}"
            )
        worker.machine.transition(WorkerState.DRAINING, self.clock(), "drain")
        self._emit("scheduler.draining", worker=name)
        self._rebind_queued(worker, "drain-handoff")
        worker.begin_drain()
        return worker

    def crash(self, name: str, reason: str = "crash") -> bool:
        """Declare ``name`` dead *now* (fault injection, connection
        loss, heartbeat timeout): fence its epoch and requeue everything
        it held.  False when there is no such live worker."""
        worker = self.workers.get(name)
        if worker is None:
            return False
        self.retire(worker, reason, worker.crash())
        return True

    def retire(
        self, worker: WorkerPort, reason: str, held: Sequence[DispatchItem] = ()
    ) -> None:
        """``worker`` is gone — drained empty, or crashed holding
        ``held``.  The order is what the sim event log shows: dead,
        whatever releasing the worker narrates, redispatches, then the
        replacement."""
        worker.machine.transition(WorkerState.DEAD, self.clock(), reason)
        self._emit(
            "scheduler.dead", worker=worker.name, reason=reason, requeued=len(held)
        )
        del self.workers[worker.name]
        self.epochs[worker.name] = worker.epoch
        self.retired += 1
        worker.release()
        self.reroute(worker.name, held)
        if self.on_worker_dead is not None:
            self.on_worker_dead(worker, reason)

    # -- queries -------------------------------------------------------------

    @property
    def parked(self) -> int:
        return len(self._unassigned)

    @property
    def outstanding(self) -> int:
        return self.ledger.outstanding_count

    @property
    def live_workers(self) -> int:
        return len(self.workers)

    def describe_workers(self) -> list[dict[str, Any]]:
        return [
            {
                "worker": name,
                "state": worker.machine.state.value,
                "phase": worker.machine.phase,
                "node": worker.node,
                "epoch": worker.epoch,
                "installed": sorted(worker.installed),
                "queue_depth": worker.queue_depth,
                "in_flight": bool(worker.in_flight),
                "dispatched": worker.dispatched_count,
                "completed": worker.completed_count,
                "heartbeats": worker.heartbeats_sent,
            }
            for name, worker in sorted(self.workers.items())
        ]

    def stats(self) -> dict[str, Any]:
        return {
            "workers": self.describe_workers(),
            "ledger": self.ledger.audit(),
            "retained_completions": self.ledger.retained_completions,
            "late": self.late,
            "dispatched": self.dispatched,
            "delivered": self.delivered,
            "heartbeats": self.heartbeats,
            "parked": self.parked,
            "parked_total": self.parked_total,
            "registrations": self.registrations,
            "live_workers": self.live_workers,
            "retired": self.retired,
        }

    def stop_report(self) -> dict[str, int]:
        """What a transport's ``stop()`` owes its caller: submissions not
        fully processed, with the parked subset broken out."""
        return {"pending": self.outstanding, "parked": self.parked}


def workers_route(core: DispatchCore, http: HttpRequest) -> HttpResponse | None:
    """The worker-pool admin routes over a :class:`DispatchCore` — the
    sim scheduler plane's and the asyncio HTTP front's."""
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
