"""The scheduler's run-state ledger: every accepted invocation, tracked
from acceptance to its single completion.

The ledger is what makes the worker protocol lossless: an invocation
accepted at submit time stays ``ACCEPTED`` (parked, awaiting an
eligible worker) or ``DISPATCHED`` (on exactly one worker's queue) until
its first completion arrives, at which point it is ``COMPLETED``
forever.  Requeues (drain handoff, crash recovery, rebind away from a
degraded worker) move a dispatched entry back to ``ACCEPTED`` and bump
its attempt count; a completion reported for an entry that is already
completed — a fenced worker's orphan attempt racing a redispatched one —
is *suppressed* and counted, never delivered twice.

The ledger is a cache of what is not settled yet.  A completed entry
lets go of its request and stays addressable only while it is among the
last :data:`COMPLETION_HORIZON` completions; conservation lives in the
counters, so it survives the forgetting.

:meth:`InvocationLedger.audit` is the conformance harness's ground
truth: ``accepted == completed + outstanding`` must hold at all times,
and after a scenario settles ``outstanding`` must be zero (nothing
dropped) with ``delivered == completed`` (nothing double-delivered).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Any

from repro.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.invoker.request import InvocationRequest

__all__ = ["COMPLETION_HORIZON", "EntryState", "LedgerEntry", "InvocationLedger"]

#: The duplicate-suppression horizon: how many of the most recent
#: completions stay addressable by request id — in the ledger, and in
#: ``AsyncInvoker.results``.  A duplicate ``complete`` can only come from
#: an attempt that was dispatched before the first one landed, so what
#: has to be covered is the work a pool can hold at once (workers x their
#: in-flight ceiling, tens); the rest is margin.  Past the horizon an id is
#: indistinguishable from one never accepted.
COMPLETION_HORIZON = 1024


class EntryState(str, enum.Enum):
    ACCEPTED = "ACCEPTED"
    DISPATCHED = "DISPATCHED"
    COMPLETED = "COMPLETED"


class LedgerEntry:
    """Run state of one accepted invocation."""

    __slots__ = (
        "request_id",
        "request",
        "seq",
        "state",
        "worker",
        "epoch",
        "attempts",
        "accepted_at",
        "completed_at",
        "ok",
    )

    def __init__(
        self, request: "InvocationRequest", accepted_at: float, seq: int = 0
    ) -> None:
        self.request_id = request.request_id
        #: Pinned until the entry completes (a requeue routes it again),
        #: ``None`` after.
        self.request: "InvocationRequest | None" = request
        #: Acceptance order within this ledger (1-based).  Events embed
        #: this instead of the raw request id: request ids come from a
        #: process-global counter, so they are unique but not
        #: reproducible across platform instances — the seq is both.
        self.seq = seq
        self.state = EntryState.ACCEPTED
        self.worker: str | None = None
        self.epoch: int | None = None
        self.attempts = 0
        self.accepted_at = accepted_at
        self.completed_at: float | None = None
        self.ok: bool | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "request_id": self.request_id,
            "seq": self.seq,
            "state": self.state.value,
            "worker": self.worker,
            "attempts": self.attempts,
            "accepted_at": self.accepted_at,
            "completed_at": self.completed_at,
            "ok": self.ok,
        }


class InvocationLedger:
    """Exactly-once completion bookkeeping over accepted invocations."""

    def __init__(self) -> None:
        self._entries: dict[str, LedgerEntry] = {}
        #: Completed ids, oldest first; at most ``COMPLETION_HORIZON``.
        self._recent: deque[str] = deque()
        self.accepted = 0
        self.completed = 0
        self.requeues = 0
        self.suppressed = 0

    # -- transitions -------------------------------------------------------

    def accept(self, request: "InvocationRequest", at: float) -> LedgerEntry:
        request_id = request.request_id
        if request_id in self._entries:
            raise SchedulingError(f"request {request_id!r} already accepted")
        self.accepted += 1
        entry = LedgerEntry(request, at, seq=self.accepted)
        self._entries[request_id] = entry
        return entry

    def dispatch(self, request_id: str, worker: str, epoch: int) -> LedgerEntry:
        entry = self._entry(request_id)
        if entry.state is not EntryState.ACCEPTED:
            raise SchedulingError(
                f"cannot dispatch {request_id!r} in state {entry.state.value}"
            )
        entry.state = EntryState.DISPATCHED
        entry.worker = worker
        entry.epoch = epoch
        entry.attempts += 1
        return entry

    def requeue(self, request_id: str, worker: str) -> bool:
        """Hand a dispatched entry back for redispatch.

        Returns False — a no-op — unless the entry is currently
        dispatched *to that worker*: a completion that beat the requeue
        to the ledger must win, and an entry already moved to another
        worker must not be stolen back.
        """
        entry = self._entries.get(request_id)
        if (
            entry is None
            or entry.state is not EntryState.DISPATCHED
            or entry.worker != worker
        ):
            return False
        entry.state = EntryState.ACCEPTED
        entry.worker = None
        entry.epoch = None
        self.requeues += 1
        return True

    def complete(self, request_id: str, ok: bool, at: float) -> bool:
        """Record a completion.  Returns True when this is the *first*
        completion (deliver it); False when a completion was already
        delivered (suppress the duplicate)."""
        entry = self._entry(request_id)
        if entry.state is EntryState.COMPLETED:
            self.suppressed += 1
            return False
        entry.state = EntryState.COMPLETED
        entry.completed_at = at
        entry.ok = ok
        entry.request = None
        self.completed += 1
        self._recent.append(request_id)
        if len(self._recent) > COMPLETION_HORIZON:
            del self._entries[self._recent.popleft()]
        return True

    def _entry(self, request_id: str) -> LedgerEntry:
        entry = self._entries.get(request_id)
        if entry is None:
            raise SchedulingError(f"request {request_id!r} was never accepted")
        return entry

    # -- queries -----------------------------------------------------------

    def entry(self, request_id: str) -> LedgerEntry | None:
        return self._entries.get(request_id)

    @property
    def outstanding_count(self) -> int:
        """How many entries are not yet completed, in O(1): every
        accepted entry is completed at most once, so the difference of
        the two counters *is* ``len(self.outstanding())``."""
        return self.accepted - self.completed

    def outstanding(self) -> list[LedgerEntry]:
        """Accepted-or-dispatched entries, in acceptance order (a scan;
        use :attr:`outstanding_count` when only the count is needed)."""
        return [
            entry
            for entry in self._entries.values()
            if entry.state is not EntryState.COMPLETED
        ]

    def audit(self) -> dict[str, int]:
        """Conservation counters; ``accepted == completed + outstanding``
        holds by construction."""
        return {
            "accepted": self.accepted,
            "completed": self.completed,
            "outstanding": self.outstanding_count,
            "requeues": self.requeues,
            "suppressed": self.suppressed,
        }

    @property
    def retained_completions(self) -> int:
        """Completed entries still addressable (<= the horizon)."""
        return len(self._recent)

    def __len__(self) -> int:
        return len(self._entries)
