"""Weighted-fair queue: deficit round-robin across classes, EDF within.

The one place an accepted async invocation waits: every sim-side worker
port (:mod:`repro.scheduler.worker`) queues in one of these.  Pushed
under a single flow key with no deadline it *is* a FIFO — the baseline
discipline.  With the QoS plane on, each class gets its own sub-queue
and the port pulls through a deficit-round-robin scheduler, so a
class's share of service is proportional to its
:class:`~repro.qos.policy.QosPolicy` weight no matter how deep a
neighbour's backlog grows (no head-of-line blocking by a flooding
class).

Within a class, items carrying a deadline are served earliest-deadline-
first.  Deadlines are ``arrival + latency target``, so for a single
class EDF degenerates to FIFO — per-object ordering (same object →
same worker → same queue, served in arrival order) is preserved.

The structure is deliberately process- and event-free: selection
happens inside :meth:`pop` on demand, making the schedule a pure
function of the push/pop sequence — deterministic across runs by
construction.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.sim.kernel import Environment

__all__ = ["QueuedItem", "WeightedFairQueue"]

DEFAULT_WEIGHT = 2


@dataclass(frozen=True)
class QueuedItem:
    """One entry of the fair queue, returned by :meth:`WeightedFairQueue.pop`."""

    cls: str
    value: Any
    enqueued_at: float
    deadline: float | None = None

    def queue_delay(self, now: float) -> float:
        return now - self.enqueued_at


class WeightedFairQueue:
    """Per-class heaps drained by deficit round-robin.

    Each :meth:`pop` serves one item.  A visit to a class grants it
    ``weight`` units of deficit; unit-cost items are served until the
    deficit runs out, then the rotation advances — classic DRR with
    per-item granularity so a serial consumer loop can drive it.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._weights: dict[str, int] = {}
        # Per-class min-heaps of (deadline-or-inf, seq, item).
        self._heaps: dict[str, list[tuple[float, int, QueuedItem]]] = {}
        self._rotation: deque[str] = deque()
        self._in_rotation: set[str] = set()
        self._deficit: dict[str, float] = {}
        self._current: str | None = None
        self._seq = 0
        self.pushed = 0
        self.served = 0
        self.shed_count: dict[str, int] = {}

    def set_weight(self, cls: str, weight: int) -> None:
        """Register a class's DRR weight (unknown classes get the default)."""
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        self._weights[cls] = weight

    def weight_of(self, cls: str) -> int:
        return self._weights.get(cls, DEFAULT_WEIGHT)

    def forget(self, cls: str) -> None:
        """Drop an undeployed class's weight and shed count."""
        self._weights.pop(cls, None)
        self.shed_count.pop(cls, None)

    def depth(self, cls: str | None = None) -> int:
        """Queued items for one class, or across all classes."""
        if cls is not None:
            return len(self._heaps.get(cls, ()))
        return sum(len(heap) for heap in self._heaps.values())

    def classes(self) -> list[str]:
        """Classes with queued items, sorted."""
        return sorted(cls for cls, heap in self._heaps.items() if heap)

    def push(self, cls: str, value: Any, deadline_s: float | None = None) -> QueuedItem:
        """Enqueue ``value`` under flow key ``cls``."""
        item = QueuedItem(
            cls=cls,
            value=value,
            enqueued_at=self.env.now,
            deadline=deadline_s,
        )
        self.pushed += 1
        self._seq += 1
        key = float("inf") if deadline_s is None else deadline_s
        heap = self._heaps.setdefault(cls, [])
        heapq.heappush(heap, (key, self._seq, item))
        if cls not in self._in_rotation and cls != self._current:
            self._rotation.append(cls)
            self._in_rotation.add(cls)
        return item

    def pop(self) -> QueuedItem | None:
        """Serve the next :class:`QueuedItem` under DRR; ``None`` when empty."""
        if not self.depth():
            return None
        self.served += 1
        return self._pop_next()

    def drain(self) -> list[QueuedItem]:
        """Remove and return everything queued, in the order :meth:`pop`
        would have served it, without counting it as served — the
        handoff a draining or crashed worker owes its peers, which keeps
        per-object order across the move."""
        items = []
        while self.depth():
            items.append(self._pop_next())
        return items

    def _pop_next(self) -> QueuedItem:
        # Caller guarantees depth() > 0, so the loop terminates: every
        # pass either serves an item or strictly shrinks/advances the
        # rotation toward a non-empty class.
        while True:
            if self._current is None:
                cls = self._rotation.popleft()
                self._in_rotation.discard(cls)
                if not self._heaps.get(cls):
                    self._deficit.pop(cls, None)
                    continue
                self._deficit[cls] = (
                    self._deficit.get(cls, 0.0) + self.weight_of(cls)
                )
                self._current = cls
            cls = self._current
            heap = self._heaps.get(cls)
            if not heap:
                # Shed mid-visit can empty the current class.
                self._deficit.pop(cls, None)
                self._current = None
                continue
            if self._deficit.get(cls, 0.0) >= 1:
                self._deficit[cls] -= 1
                _, _, item = heapq.heappop(heap)
                if not heap:
                    # Drained: unused deficit does not carry over (DRR).
                    self._deficit.pop(cls, None)
                    self._current = None
                return item
            # Deficit spent: back of the rotation, next class's turn.
            self._rotation.append(cls)
            self._in_rotation.add(cls)
            self._current = None

    def shed(self, cls: str, count: int) -> list[QueuedItem]:
        """Remove up to ``count`` items of ``cls``, newest/laxest first.

        The overload controller sheds the work *least* likely to still
        matter: the largest (deadline, seq) keys — the most recently
        enqueued items with the loosest deadlines.  Items already near
        the head keep their position, so survivors' ordering (and thus
        per-object ordering) is untouched.
        """
        heap = self._heaps.get(cls)
        if not heap or count < 1:
            return []
        count = min(count, len(heap))
        victims = heapq.nlargest(count, heap)
        doomed = set(id(entry[2]) for entry in victims)
        survivors = [entry for entry in heap if id(entry[2]) not in doomed]
        heapq.heapify(survivors)
        self._heaps[cls] = survivors
        self.shed_count[cls] = self.shed_count.get(cls, 0) + count
        # Keep victims in shed order: laxest first for reporting.
        return [entry[2] for entry in victims]

    def stats(self) -> dict[str, Any]:
        return {
            "pushed": self.pushed,
            "served": self.served,
            "depth": self.depth(),
            "depth_by_class": [
                {"class": cls, "depth": self.depth(cls)} for cls in self.classes()
            ],
            "shed_by_class": [
                {"class": cls, "shed": count} for cls, count in sorted(self.shed_count.items())
            ],
        }
