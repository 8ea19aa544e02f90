"""The worker lifecycle state machine.

Workers progress through typed states mirroring the register →
heartbeat → drain protocol of a scheduler/worker control plane:

.. code-block:: text

    REGISTERED ──► READY ◄──► DEGRADED
                     │            │
                     ▼            ▼
                  DRAINING ─────► DEAD

The machine is *phase-monotone*: each state belongs to a lifecycle
phase (joining=0, active=1, leaving=2, gone=3) and no legal transition
ever decreases the phase.  READY ⇄ DEGRADED oscillation is allowed —
both are phase 1, a worker whose heartbeats resume is rebound — but a
worker that started draining can never serve again, and DEAD is
terminal.  The conformance suite asserts this invariant over every
recorded transition history.

Transitions are validated: an illegal edge raises
:class:`~repro.errors.SchedulingError` and leaves the state unchanged,
so a buggy control-plane caller cannot corrupt a worker record.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.errors import SchedulingError

__all__ = [
    "WorkerState",
    "PHASE",
    "TRANSITIONS",
    "Transition",
    "WorkerStateMachine",
]


class WorkerState(str, enum.Enum):
    """Lifecycle states of one worker registration (one epoch)."""

    REGISTERED = "REGISTERED"
    READY = "READY"
    DEGRADED = "DEGRADED"
    DRAINING = "DRAINING"
    DEAD = "DEAD"


#: Lifecycle phase of each state.  Legal transitions never decrease it.
PHASE: dict[WorkerState, int] = {
    WorkerState.REGISTERED: 0,
    WorkerState.READY: 1,
    WorkerState.DEGRADED: 1,
    WorkerState.DRAINING: 2,
    WorkerState.DEAD: 3,
}

#: The legal edges.  Everything may crash (→ DEAD) at any time; only
#: DEGRADED may heal back to READY; DRAINING admits no return.
TRANSITIONS: dict[WorkerState, frozenset[WorkerState]] = {
    WorkerState.REGISTERED: frozenset({WorkerState.READY, WorkerState.DEAD}),
    WorkerState.READY: frozenset(
        {WorkerState.DEGRADED, WorkerState.DRAINING, WorkerState.DEAD}
    ),
    WorkerState.DEGRADED: frozenset(
        {WorkerState.READY, WorkerState.DRAINING, WorkerState.DEAD}
    ),
    WorkerState.DRAINING: frozenset({WorkerState.DEAD}),
    WorkerState.DEAD: frozenset(),
}


@dataclass(frozen=True)
class Transition:
    """One recorded state change (simulated time + reason)."""

    at: float
    source: WorkerState
    target: WorkerState
    reason: str = ""

    def to_dict(self) -> dict[str, object]:
        return {
            "at": self.at,
            "from": self.source.value,
            "to": self.target.value,
            "reason": self.reason,
        }


class WorkerStateMachine:
    """Validated, history-keeping state holder for one worker epoch."""

    def __init__(self, initial: WorkerState = WorkerState.REGISTERED) -> None:
        self.state = initial
        self.history: list[Transition] = []
        #: Told after every transition: the pool this worker belongs to
        #: (``DispatchCore.add_worker`` sets it) keeps its eligible set.
        self.on_transition: Callable[[], None] | None = None

    # -- queries -----------------------------------------------------------

    @property
    def phase(self) -> int:
        return PHASE[self.state]

    @property
    def is_dead(self) -> bool:
        return self.state is WorkerState.DEAD

    @property
    def is_serving(self) -> bool:
        """True while the worker may *execute* work (READY/DEGRADED/
        DRAINING — a draining worker finishes what it holds)."""
        return self.state in (
            WorkerState.READY,
            WorkerState.DEGRADED,
            WorkerState.DRAINING,
        )

    @property
    def is_dispatchable(self) -> bool:
        """True only in READY: the single state new work may be sent to."""
        return self.state is WorkerState.READY

    def can_transition(self, target: WorkerState) -> bool:
        return target in TRANSITIONS[self.state]

    # -- mutation ----------------------------------------------------------

    def transition(self, target: WorkerState, at: float, reason: str = "") -> Transition:
        """Move to ``target``; raises :class:`SchedulingError` on an
        illegal edge (state is left unchanged)."""
        if not self.can_transition(target):
            raise SchedulingError(
                f"illegal worker transition {self.state.value} -> {target.value}"
                + (f" ({reason})" if reason else "")
            )
        record = Transition(at=at, source=self.state, target=target, reason=reason)
        self.state = target
        self.history.append(record)
        if self.on_transition is not None:
            self.on_transition()
        return record

    # -- invariants --------------------------------------------------------

    def is_monotone(self) -> bool:
        """True when the recorded history never decreased the phase and
        used only legal edges — the conformance suite's core worker
        invariant."""
        state = self.history[0].source if self.history else self.state
        for step in self.history:
            if step.source is not state:
                return False
            if step.target not in TRANSITIONS[step.source]:
                return False
            if PHASE[step.target] < PHASE[step.source]:
                return False
            state = step.target
        return state is self.state
