"""The QoS plane facade: policies, admission, fair queues, shedder.

One object owns the whole enforcement pipeline so the gateway, the
async invoker and the worker pools each wire against a single
dependency:

* :meth:`QosPlane.policy_for` resolves (and caches) a class's
  :class:`~repro.qos.policy.QosPolicy` from its deployed NFRs, exactly
  as the CRM derives resilience policies at deploy time, until
  :meth:`QosPlane.class_changed` hears of an update or undeploy.
* :meth:`admit_http` / :meth:`admit_async` run admission control in
  front of the synchronous and asynchronous paths.
* :meth:`new_fair_queue` builds the weighted-fair queue of one worker
  port (static or ``SimWorker``), pre-seeded with resolved weights;
  :meth:`retire_queue` forgets a dead worker's.
* :meth:`start_shedder` launches the overload controller over the live
  queues.

The plane is **off by default**: ``PlatformConfig().qos.enabled`` is
False and a disabled plane is never even constructed, so the Fig. 3
baseline configurations execute byte-identically with or without this
module imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ValidationError
from repro.model.nfr import NonFunctionalRequirements
from repro.monitoring.collector import MonitoringSystem
from repro.monitoring.events import EventLog
from repro.plane import Plane
from repro.qos.admission import AdmissionController, AdmissionDecision
from repro.qos.fairqueue import QueuedItem, WeightedFairQueue
from repro.qos.policy import DEFAULT_QOS_POLICY, QosPolicy
from repro.qos.shedder import OverloadController
from repro.sim.kernel import Environment

__all__ = ["QosConfig", "QosPlane"]


@dataclass(frozen=True)
class QosConfig:
    """Construction-time knobs of the QoS enforcement plane.

    Attributes:
        enabled: master switch; when False the platform never builds a
            plane: no admission checks, worker queues are plain FIFO and
            nothing is shed.
        concurrency_limit: platform-wide in-flight HTTP ceiling
            (``None`` = unbounded).
        shed_queue_depth: total async backlog that trips a shed pass.
        shed_check_interval_s: overload-controller wake-up period.
    """

    enabled: bool = False
    concurrency_limit: int | None = None
    shed_queue_depth: int = 256
    shed_check_interval_s: float = 0.25

    def __post_init__(self) -> None:
        if self.concurrency_limit is not None and self.concurrency_limit < 1:
            raise ValidationError(
                f"concurrency_limit must be >= 1, got {self.concurrency_limit}"
            )
        if self.shed_queue_depth < 1:
            raise ValidationError(
                f"shed_queue_depth must be >= 1, got {self.shed_queue_depth}"
            )
        if self.shed_check_interval_s <= 0:
            raise ValidationError(
                f"shed_check_interval_s must be > 0, got "
                f"{self.shed_check_interval_s}"
            )


class QosPlane(Plane):
    """Owns admission, fair queuing, and shedding for one platform."""

    name = "qos"

    def __init__(
        self,
        env: Environment,
        monitoring: MonitoringSystem | None = None,
        events: EventLog | None = None,
        config: QosConfig | None = None,
    ) -> None:
        self.env = env
        self.monitoring = monitoring
        self.events = events
        self.config = config or QosConfig(enabled=True)
        self.admission = AdmissionController(
            env, concurrency_limit=self.config.concurrency_limit
        )
        #: Queues of live worker ports — what the shedder watches.
        self.queues: list[WeightedFairQueue] = []
        #: Totals carried over from retired queues, so the counters
        #: reported below never run backwards when a worker dies.
        self._retired_pushed = 0
        self._retired_served = 0
        self._retired_shed: dict[str, int] = {}
        self.shedder: OverloadController | None = None
        self._policies: dict[str, QosPolicy] = {}
        #: The NFRs each deployed class runs with, as the CRM's hook told.
        self._nfrs: dict[str, NonFunctionalRequirements] = {}

    # -- policies ----------------------------------------------------------

    def policy_for(self, cls: str | None) -> QosPolicy:
        """The enforcement policy for ``cls`` (cached after first resolve).

        Requests whose class is unknown or not yet deployed get the one
        unnamed default policy *without* caching it, so a later
        deployment is picked up and a name from outside keeps no row.
        """
        if not cls:
            return DEFAULT_QOS_POLICY
        policy = self._policies.get(cls)
        if policy is not None:
            return policy
        nfr = self._nfrs.get(cls)
        if nfr is None:
            return DEFAULT_QOS_POLICY
        policy = self._policies[cls] = QosPolicy.from_nfr(cls, nfr)
        self._propagate_weight(policy)
        return policy

    def class_changed(self, cls: str, runtime: Any | None) -> None:
        """New NFRs apply from the next request; an undeployed class's
        counts go too."""
        self._policies.pop(cls, None)
        self.admission.forget(cls)
        if runtime is not None:
            self._nfrs[cls] = runtime.resolved.nfr
            return
        admission = self.admission
        for counts in (
            self._nfrs, self._retired_shed, admission.admitted, admission.rejected_rate,
            admission.rejected_concurrency,
        ):
            counts.pop(cls, None)
        for queue in self.queues:
            queue.forget(cls)

    def _propagate_weight(self, policy: QosPolicy) -> None:
        for queue in self.queues:
            queue.set_weight(policy.cls, policy.weight)

    # -- admission ---------------------------------------------------------

    def admit_http(self, cls: str | None) -> AdmissionDecision:
        """Admission check for one synchronous (gateway) request.

        The caller owns an in-flight slot on admission and must call
        :meth:`release_http` when the request completes.
        """
        decision = self.admission.check(self.policy_for(cls))
        if not decision.admitted:
            self._emit_reject(decision, path="http")
        return decision

    def release_http(self) -> None:
        self.admission.release()

    def admit_async(self, cls: str | None) -> AdmissionDecision:
        """Admission check for one asynchronous submit (rate only: queued
        work is bounded by the shedder, not the in-flight ceiling)."""
        decision = self.admission.check(self.policy_for(cls), use_ceiling=False)
        if not decision.admitted:
            self._emit_reject(decision, path="async")
        return decision

    def _emit_reject(self, decision: AdmissionDecision, path: str) -> None:
        if self.events is not None:
            self.events.record(
                "qos.reject",
                cls=decision.cls,
                reason=decision.reason,
                path=path,
                retry_after_s=round(decision.retry_after_s, 6),
            )

    # -- fair queues -------------------------------------------------------

    def new_fair_queue(self) -> WeightedFairQueue:
        """A fair queue pre-seeded with every resolved class weight."""
        queue = WeightedFairQueue(self.env)
        for policy in self._policies.values():
            queue.set_weight(policy.cls, policy.weight)
        self.queues.append(queue)
        return queue

    def retire_queue(self, queue: WeightedFairQueue) -> None:
        """Forget a dead worker's (already emptied) queue, keeping its
        totals; the shedder shares :attr:`queues`, so it stops scanning
        the queue too."""
        self.queues.remove(queue)
        self._retired_pushed += queue.pushed
        self._retired_served += queue.served
        for cls, count in queue.shed_count.items():
            self._retired_shed[cls] = self._retired_shed.get(cls, 0) + count

    def deadline_for(self, cls: str | None) -> float | None:
        """Absolute EDF deadline for a request arriving now (or None)."""
        policy = self.policy_for(cls)
        if policy.deadline_ms is None:
            return None
        return self.env.now + policy.deadline_ms / 1000.0

    def record_queue_delay(self, cls: str, delay_s: float) -> None:
        """Feed the per-class queue-delay histogram (and overall)."""
        if self.monitoring is None:
            return
        registry = self.monitoring.registry
        registry.histogram("qos.queue_delay_s").record(delay_s)
        if cls in self._nfrs:  # not work its undeploy left queued
            registry.histogram("qos.queue_delay_s", {"class": cls}).record(delay_s)

    # -- shedding ----------------------------------------------------------

    def start_shedder(
        self, on_shed: Callable[[QueuedItem], None] | None = None
    ) -> OverloadController:
        """Build and start the overload controller over the fair queues."""
        self.shedder = OverloadController(
            self.env,
            self.queues,
            self.policy_for,
            on_shed=on_shed,
            monitoring=self.monitoring,
            events=self.events,
            queue_depth_high=self.config.shed_queue_depth,
            check_interval_s=self.config.shed_check_interval_s,
        )
        self.shedder.start()
        return self.shedder

    def stop(self) -> None:
        if self.shedder is not None:
            self.shedder.stop()

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The full enforcement picture, JSON-friendly; the fair-queue
        totals cover live and retired queues."""
        shed_by_class = dict(self._retired_shed)
        for queue in self.queues:
            for cls, count in queue.shed_count.items():
                shed_by_class[cls] = shed_by_class.get(cls, 0) + count
        out: dict[str, Any] = {
            "policies": [
                {
                    "class": p.cls,
                    "rate_rps": p.rate_rps,
                    "burst": p.burst,
                    "weight": p.weight,
                    "tier": p.tier,
                    "deadline_ms": p.deadline_ms,
                }
                for _cls, p in sorted(self._policies.items())
            ],
            "admission": self.admission.stats(),
            "in_flight": self.admission.in_flight,
            "fair_queue": {
                "pushed": self._retired_pushed + sum(q.pushed for q in self.queues),
                "served": self._retired_served + sum(q.served for q in self.queues),
                "depth": sum(q.depth() for q in self.queues),
                "shed_by_class": [
                    {"class": cls, "shed": count} for cls, count in sorted(shed_by_class.items())
                ],
            },
        }
        if self.shedder is not None:
            out["shedder"] = self.shedder.stats()
        return out
