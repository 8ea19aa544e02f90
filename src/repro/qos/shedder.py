"""Overload controller: brownout by shedding lowest-tier queued work.

The last line of defence in the QoS pipeline.  Admission bounds what
each class may *offer*; the fair queue bounds how unfairly backlog can
be *served*; but a platform can still drown when aggregate admitted
load exceeds aggregate capacity (a chaos slow-pod window, a cold-start
storm).  The controller watches two signals:

* **queue depth** — total items queued across the async fair queues
  above a high watermark, and
* **latency brownout** — a class that declared a latency target whose
  observed windowed p95 is running above it.

Either trips a shed pass: queued work is discarded from the lowest
tier upward (never the highest tier present — somebody must keep their
SLO) until depth is back under the target fraction of the watermark.
Shed items are failed back to their callers as
:class:`~repro.errors.OverloadError`, never silently dropped.

All decisions are functions of queue state and deterministic metrics at
fixed check intervals — no randomness — so shed counts are reproducible
run-to-run under a seeded chaos plan.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.monitoring.collector import MonitoringSystem
from repro.monitoring.events import EventLog, emit
from repro.monitoring.tracing import Tracer
from repro.qos.fairqueue import QueuedItem, WeightedFairQueue
from repro.qos.policy import QosPolicy
from repro.sim.kernel import Environment

__all__ = ["OverloadController", "QOS_TRACE_ID"]

#: Shed/admission spans share one synthetic trace (cf. ``"resilience"``):
#: they are platform defence actions, not attributable to one request.
QOS_TRACE_ID = "qos"

#: A shed pass sheds down to this fraction of the trip depth.
SHED_TARGET_FRACTION = 0.5

#: Windowed percentile the brownout trigger watches.
BROWNOUT_PCT = 95

#: Brownout only fires once this many samples are in the window —
#: a p95 of three requests is noise, not a signal.
MIN_BROWNOUT_SAMPLES = 20


class OverloadController:
    """Periodically sheds queued work when the platform is drowning.

    Args:
        env: simulation environment.
        queues: the async invoker's fair queues (one per partition).
        policy_for: resolver from class name to its :class:`QosPolicy`
            (supplies the shed tier).
        on_shed: callback invoked for every shed :class:`QueuedItem`
            (the invoker fails the item's completion event here).
        monitoring: source of observed per-class p95 for the brownout
            trigger; ``None`` disables that trigger.
        queue_depth_high: total queued items that trip a shed pass.
        target_fraction: shed down to ``queue_depth_high * fraction``.
        check_interval_s: controller wake-up period.
    """

    def __init__(
        self,
        env: Environment,
        queues: list[WeightedFairQueue],
        policy_for: Callable[[str], QosPolicy],
        on_shed: Callable[[QueuedItem], None] | None = None,
        monitoring: MonitoringSystem | None = None,
        events: EventLog | None = None,
        tracer: Tracer | None = None,
        queue_depth_high: int = 256,
        target_fraction: float = SHED_TARGET_FRACTION,
        check_interval_s: float = 0.25,
    ) -> None:
        if queue_depth_high < 1:
            raise ValueError(
                f"queue_depth_high must be >= 1, got {queue_depth_high}"
            )
        if not 0.0 <= target_fraction < 1.0:
            raise ValueError(
                f"target_fraction must be in [0, 1), got {target_fraction}"
            )
        if check_interval_s <= 0:
            raise ValueError(
                f"check_interval_s must be > 0, got {check_interval_s}"
            )
        self.env = env
        self.queues = queues
        self.policy_for = policy_for
        self.on_shed = on_shed
        self.monitoring = monitoring
        self.events = events
        self.tracer = tracer
        self.queue_depth_high = queue_depth_high
        self.target_depth = int(queue_depth_high * target_fraction)
        self.check_interval_s = check_interval_s
        self.shed_total = 0
        self.shed_by_class: dict[str, int] = {}
        self.passes = 0
        self._running = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Launch the periodic check process (idempotent)."""
        if not self._running:
            self._running = True
            self.env.process(self._run())

    def stop(self) -> None:
        self._running = False

    def _run(self):
        while self._running:
            yield self.env.timeout(self.check_interval_s)
            if self._running:
                self.check()

    # -- triggers ----------------------------------------------------------

    def total_depth(self) -> int:
        return sum(queue.depth() for queue in self.queues)

    def _brownout_classes(self) -> list[str]:
        """Classes with a declared latency target currently missing it."""
        if self.monitoring is None:
            return []
        missing = []
        for cls in self.monitoring.observed_classes:
            policy = self.policy_for(cls)
            if policy.deadline_ms is None:
                continue
            obs = self.monitoring.for_class(cls)
            if len(obs.window) < MIN_BROWNOUT_SAMPLES:
                continue
            if obs.latency_pct_ms(BROWNOUT_PCT) > policy.deadline_ms:
                missing.append(cls)
        return missing

    # -- shedding ----------------------------------------------------------

    def check(self) -> int:
        """One control decision; returns how many items were shed."""
        depth = self.total_depth()
        brownout = self._brownout_classes()
        if depth <= self.queue_depth_high and not brownout:
            return 0
        if depth <= self.target_depth:
            # Brownout with an already-short queue: nothing queued to
            # shed would relieve it; executing work is the bottleneck.
            return 0
        return self._shed_pass(depth, brownout)

    def _shed_pass(self, depth: int, brownout: list[str]) -> int:
        self.passes += 1
        queued: set[str] = set()
        for queue in self.queues:
            queued.update(queue.classes())
        if not queued:
            return 0
        # Lowest tier first, name as deterministic tie-break; the top
        # tier present is protected so shedding can't starve the very
        # class whose SLO triggered the brownout.
        ordered = sorted(queued, key=lambda c: (self.policy_for(c).tier, c))
        protected_tier = self.policy_for(ordered[-1]).tier
        shed_here = 0
        for cls in ordered:
            if depth - shed_here <= self.target_depth:
                break
            if self.policy_for(cls).tier >= protected_tier and len(
                {self.policy_for(c).tier for c in queued}
            ) > 1:
                break
            need = depth - shed_here - self.target_depth
            shed_cls = 0
            for queue in self.queues:
                if need - shed_cls <= 0:
                    break
                for item in queue.shed(cls, need - shed_cls):
                    shed_cls += 1
                    if self.on_shed is not None:
                        self.on_shed(item)
            if shed_cls:
                shed_here += shed_cls
                self.shed_by_class[cls] = self.shed_by_class.get(cls, 0) + shed_cls
                self._emit_shed(cls, shed_cls, depth, brownout)
        self.shed_total += shed_here
        return shed_here

    def _emit_shed(
        self, cls: str, count: int, depth: int, brownout: list[str]
    ) -> None:
        fields = {
            "cls": cls,
            "count": count,
            "depth": depth,
            "tier": self.policy_for(cls).tier,
        }
        if brownout:
            fields["brownout"] = ",".join(sorted(brownout))
        emit(self.events, self.tracer, QOS_TRACE_ID, "qos.shed", **fields)

    def stats(self) -> dict[str, Any]:
        return {
            "passes": self.passes,
            "shed_total": self.shed_total,
            "shed_by_class": [
                {"class": cls, "shed": count}
                for cls, count in sorted(self.shed_by_class.items())
            ],
            "queue_depth": self.total_depth(),
            "queue_depth_high": self.queue_depth_high,
        }
