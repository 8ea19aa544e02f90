"""The transport-neutral half of the scheduler.

:class:`DispatchCore` owns everything about dispatch that does *not*
depend on how workers are reached: the invocation ledger, the deployed
class list, the parked-request buffer, rendezvous worker selection, and
the first-completion-wins delivery rule.  Both transports drive this
one state machine:

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
ports when it is off.

A *worker port* is anything exposing the attributes the core reads
(``name``, ``epoch``, ``installed``, ``machine``) and the two methods it
calls (``push(item)`` to deliver a dispatch, ``take_queue()`` to hand
queued items back, in service order, on rebind).  The conformance
invariants — exactly-once completion, dispatch-only-to-READY,
phase-monotone histories — are properties of this class, which is why
they hold identically over both transports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Container, Protocol, runtime_checkable

from repro.invoker.engine import split_object_id
from repro.scheduler.ledger import InvocationLedger
from repro.storage.hashring import stable_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.invoker.request import InvocationRequest, InvocationResult
    from repro.scheduler.state import WorkerStateMachine

__all__ = [
    "DispatchItem",
    "WorkerPort",
    "DispatchCore",
    "rendezvous_score",
    "request_class",
]


@dataclass(frozen=True)
class DispatchItem:
    """One invocation handed to a worker, fenced by its epoch."""

    request: "InvocationRequest"
    epoch: int
    dispatched_at: float


@runtime_checkable
class WorkerPort(Protocol):
    """What the dispatch core needs from a transport-side worker."""

    name: str
    epoch: int
    installed: Container[str]
    machine: "WorkerStateMachine"

    def push(self, item: DispatchItem) -> None: ...

    def take_queue(self) -> list[DispatchItem]: ...


def rendezvous_score(object_id: str, worker: str) -> int:
    """Stable per-(object, worker) weight for rendezvous hashing."""
    return stable_hash(f"{object_id}|{worker}")


def request_class(request: "InvocationRequest") -> str | None:
    """The class a request addresses: explicit, else its object id's."""
    return request.cls or split_object_id(request.object_id)[0]


class DispatchCore:
    """Ledger + routing + fencing state shared by every transport."""

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
        self.workers: dict[str, WorkerPort] = {}
        #: every registration ever made, including retired ones — the
        #: conformance suite checks monotonicity over all of them.
        self.registrations: list[WorkerPort] = []
        self.on_complete: Callable[["InvocationRequest", "InvocationResult"], None] | None = None
        self.dispatched = 0
        self.delivered = 0
        self.parked_total = 0
        self._unassigned: deque["InvocationRequest"] = deque()
        self._classes: list[str] = []

    # -- registration --------------------------------------------------------

    def add_worker(self, worker: WorkerPort) -> None:
        self.workers[worker.name] = worker
        self.registrations.append(worker)

    def note_class(self, cls: str) -> None:
        """A class runtime was (re)deployed; remember it for eligibility."""
        if cls not in self._classes:
            self._classes.append(cls)

    def deployed_classes(self) -> list[str]:
        return list(self._classes)

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
        eligible = [
            worker
            for _, worker in sorted(self.workers.items())
            if worker.machine.is_dispatchable
            and (cls is None or cls in worker.installed)
        ]
        if not eligible:
            return None
        return max(
            eligible, key=lambda w: rendezvous_score(request.object_id, w.name)
        )

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
            self.route(request)

    def reroute(self, worker_name: str, items: list[DispatchItem]) -> int:
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
        entry = self.ledger.entry(request.request_id)
        first = self.ledger.complete(request.request_id, result.ok, self.clock())
        if not first:
            self._emit(
                "scheduler.suppressed",
                worker=worker_name,
                request=entry.seq if entry is not None else -1,
            )
            return False
        self.delivered += 1
        self._emit(
            "scheduler.complete",
            worker=worker_name,
            request=entry.seq if entry is not None else -1,
            ok=result.ok,
        )
        if self.on_complete is not None:
            self.on_complete(request, result)
        return True

    # -- queries -------------------------------------------------------------

    @property
    def parked(self) -> int:
        return len(self._unassigned)

    @property
    def outstanding(self) -> int:
        return self.ledger.outstanding_count

    @property
    def live_workers(self) -> int:
        return sum(
            1 for worker in self.workers.values() if not worker.machine.is_dead
        )

    def stop_report(self) -> dict[str, int]:
        """What a transport's ``stop()`` owes its caller: submissions not
        fully processed, with the parked subset broken out."""
        return {"pending": self.outstanding, "parked": self.parked}
