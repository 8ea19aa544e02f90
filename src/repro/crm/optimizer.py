"""Requirement-driven optimization (paper §III-B).

Oparaca "reacts to changes in workload or performance by adjusting the
allocated resources".  That is one loop, run by the metrics plane's
scrape: scrape → ``SloEvaluator.evaluate`` → :meth:`RequirementOptimizer.tick`.
The optimizer acts on the firing SLO alerts and moves only each
function service's floor (``min_scale``):

* a ``throughput`` / ``latency_p95`` alert → raise the floor of each
  *saturated* service of the class to one above its replicas, at most
  once per service per ``interval_s`` (a service with free slots gets
  nothing: more replicas cannot help it);
* sustained low in-flight depth → lower the floor, never below the
  template's.

The service scales up to its floor; its own autoscaler (the KPA or the
optional HPA) moves replicas above it and never below, so one replica
count has one writer.  :attr:`decisions` keeps the last 64 actions and
why (``optimizer.decision`` events narrate them all).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.crm.manager import ClassRuntimeManager
from repro.errors import SchedulingError
from repro.faas.engine import FunctionService
from repro.monitoring.events import EventLog
from repro.monitoring.nfr_table import _saturated
from repro.sim.kernel import Environment

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.monitoring.plane import MetricsPlane

__all__ = ["OptimizerDecision", "RequirementOptimizer"]

#: The SLO alerts more replicas can answer.
SCALING_SLOS = ("throughput", "latency_p95")


@dataclass(frozen=True)
class OptimizerDecision:
    """One recorded autoscaling action."""

    at: float
    cls: str
    service: str
    action: str  # "scale-up" | "scale-down" | "budget-hold"
    replicas_before: int
    replicas_after: int
    floor: int
    reason: str


class RequirementOptimizer:
    """Closes the loop between SLO alerts and service floors."""

    def __init__(
        self,
        env: Environment,
        manager: ClassRuntimeManager,
        metrics: "MetricsPlane",
        interval_s: float = 5.0,
        scale_down_grace_s: float = 30.0,
        max_replicas: int = 64,
        events: EventLog | None = None,
    ) -> None:
        self.env = env
        self.manager = manager
        self.slo = metrics.slo
        self.interval_s = interval_s
        self.scale_down_grace_s = scale_down_grace_s
        self.max_replicas = max_replicas
        self.events = events if events is not None else EventLog(env)
        self.decisions: deque[OptimizerDecision] = deque(maxlen=64)
        self.decisions_total = 0
        self._idle_since: dict[str, float] = {}
        self._acted_at: dict[str, float] = {}
        metrics.scraper.on_scrape.append(self.tick)

    def _over_budget(self, cls: str, extra: int) -> bool:
        """Would adding ``extra`` replicas push the class past its
        declared monthly budget?"""
        budget = self.manager.resolved(cls).nfr.constraint.budget_usd_per_month
        if budget is None:
            return False
        meter = self.manager.costs.meter(cls)  # every deployed class has one
        return meter.monthly_run_rate_usd(extra_replicas=extra) > budget

    def tick(self, _now: float | None = None) -> None:
        """One optimization pass, run by the metrics plane's scrape right
        after the SLO evaluation (callable directly in tests)."""
        self.manager.costs.observe_all()
        alerts = {a.cls: a for a in self.slo.firing() if a.slo in SCALING_SLOS}
        for cls in self.manager.deployed_classes():
            runtime = self.manager.runtime(cls)
            if runtime.resolved.nfr.qos.is_empty:
                continue
            alert = alerts.get(cls)
            for _fn, svc in sorted(runtime.services.items()):
                if alert is not None and _saturated(svc):
                    self._idle_since.pop(svc.name, None)
                    acted_at = self._acted_at.get(svc.name, -self.interval_s)
                    if self.env.now - acted_at >= self.interval_s and (
                        svc.replicas < self.max_replicas
                    ):
                        self._move_floor(
                            cls, svc, svc.replicas + 1, "scale-up",
                            f"{alert.slo} alert firing with saturated replicas "
                            f"({alert.detail})",
                        )
                elif self._idle_past_grace(svc):
                    provision = svc.definition.provision
                    self._move_floor(
                        cls, svc,
                        max(provision.min_scale, min(svc.min_scale, svc.replicas - 1)),
                        "scale-down",
                        f"utilization {svc.total_in_flight()}/"
                        f"{svc.replicas * provision.concurrency} sustained low",
                    )

    def _idle_past_grace(self, svc: FunctionService) -> bool:
        """Replicas above the template's floor have run with in-flight
        depth under 30% of one replica fewer for ``scale_down_grace_s``."""
        provision = svc.definition.provision
        replicas = svc.replicas
        if replicas <= max(provision.min_scale, 1) or (
            svc.total_in_flight() >= (replicas - 1) * provision.concurrency * 0.3
        ):
            self._idle_since.pop(svc.name, None)
            return False
        since = self._idle_since.setdefault(svc.name, self.env.now)
        if self.env.now - since < self.scale_down_grace_s:
            return False
        del self._idle_since[svc.name]
        return True

    def _move_floor(
        self, cls: str, svc: FunctionService, floor: int, action: str, reason: str
    ) -> None:
        before, old_floor = svc.replicas, svc.min_scale
        self._acted_at[svc.name] = self.env.now
        if floor > before and self._over_budget(cls, extra=floor - before):
            reason = f"scale-up to {floor} would exceed the declared budget"
            action, floor = "budget-hold", old_floor
        else:
            try:
                svc.set_floor(floor)
            except SchedulingError:
                return  # cluster full; the floor stands, the scaler retries
            if (svc.replicas, svc.min_scale) == (before, old_floor):
                return
        decision = OptimizerDecision(
            self.env.now, cls, svc.name, action, before, svc.replicas, floor, reason
        )
        self.decisions.append(decision)
        self.decisions_total += 1
        if self.events.enabled:
            self.events.record(
                "optimizer.decision",
                cls=cls,
                service=svc.name,
                action=action,
                before=before,
                after=svc.replicas,
                floor=floor,
                reason=reason,
            )
