"""Cost accounting — enforcement for the ``budget`` constraint (§II-C).

The paper's deployment constraints include "budget"; templates already
route budget-capped classes onto scale-to-zero runtimes, and this
module closes the loop at run time: a :class:`CostTracker` meters each
class's accrued spend (function replica-hours plus its share of
document-DB work), and the requirement optimizer consults the projected
monthly run rate before scaling a budget-capped class up.

Attribution is exact, not estimated: every class runtime has its own
DB collection, and the document store meters work units per collection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.crm.runtime import ClassRuntime

from repro.sim.kernel import Environment
from repro.storage.kv import DocumentStore

__all__ = [
    "CostModel",
    "ClassCostMeter",
    "CostTracker",
    "budget_tier",
    "TIER_ECONOMY",
    "TIER_STANDARD",
    "TIER_PREMIUM",
]

HOURS_PER_MONTH = 730.0

#: Budget tiers consumed by the QoS plane (shed order, fair-share weight).
TIER_ECONOMY = 1
TIER_STANDARD = 2
TIER_PREMIUM = 3

#: Monthly-budget floors for the paid tiers.
PREMIUM_BUDGET_USD = 100.0
STANDARD_BUDGET_USD = 25.0


def budget_tier(budget_usd_per_month: float | None) -> int:
    """Map a class's declared monthly budget to a service tier.

    The ``budget`` constraint (§II-C) caps spend, but it also signals
    how much the owner is paying for the deployment — which is what the
    QoS plane needs when overload forces it to rank classes: capped
    cheap deployments brown out first, premium ones last.  No declared
    budget means the default (standard) tier, matching the constraint's
    "unrestricted" semantics.
    """
    if budget_usd_per_month is None:
        return TIER_STANDARD
    if budget_usd_per_month >= PREMIUM_BUDGET_USD:
        return TIER_PREMIUM
    if budget_usd_per_month >= STANDARD_BUDGET_USD:
        return TIER_STANDARD
    return TIER_ECONOMY


@dataclass(frozen=True)
class CostModel:
    """Prices (deliberately cloud-shaped, not provider-exact)."""

    replica_usd_per_hour: float = 0.048  # ~a small container
    db_usd_per_million_units: float = 1.25


class ClassCostMeter:
    """Accrues one class's spend over simulated time."""

    def __init__(
        self,
        env: Environment,
        cls: str,
        model: CostModel,
        replica_fn: Callable[[], int],
        db_units_fn: Callable[[], float],
    ) -> None:
        self.env = env
        self.cls = cls
        self.model = model
        self.replica_fn = replica_fn
        self.db_units_fn = db_units_fn
        self.deployed_at = env.now
        self.replica_seconds = 0.0
        self._last_observed = env.now
        self._last_replicas = replica_fn()

    def observe(self) -> None:
        """Integrate replica time up to now (piecewise-constant)."""
        now = self.env.now
        self.replica_seconds += self._last_replicas * (now - self._last_observed)
        self._last_observed = now
        self._last_replicas = self.replica_fn()

    def accrued_usd(self) -> float:
        """Total spend since deployment."""
        self.observe()
        compute = self.replica_seconds / 3600.0 * self.model.replica_usd_per_hour
        db = self.db_units_fn() / 1e6 * self.model.db_usd_per_million_units
        return compute + db

    def monthly_run_rate_usd(self, extra_replicas: int = 0) -> float:
        """Projected monthly spend at the *current* deployment shape.

        ``extra_replicas`` lets the optimizer price a prospective
        scale-up before committing to it.
        """
        self.observe()
        replicas = self._last_replicas + extra_replicas
        compute = replicas * self.model.replica_usd_per_hour * HOURS_PER_MONTH
        elapsed = self.env.now - self.deployed_at
        if elapsed > 0:
            db_rate = self.db_units_fn() / elapsed  # units/s since deploy
        else:
            db_rate = 0.0
        db = db_rate * 3600.0 * HOURS_PER_MONTH / 1e6 * self.model.db_usd_per_million_units
        return compute + db


class CostTracker:
    """Platform-wide cost meters, one per deployed class."""

    def __init__(
        self, env: Environment, store: DocumentStore, model: CostModel | None = None
    ) -> None:
        self.env = env
        self.store = store
        self.model = model or CostModel()
        self._meters: dict[str, ClassCostMeter] = {}

    def register(self, runtime: "ClassRuntime") -> ClassCostMeter:
        """Start metering a class runtime.  A class already metered (an
        update) keeps its meter: the old shape is billed up to now, then
        the new runtime's services are counted."""
        def replica_count(rt=runtime) -> int:
            return sum(svc.replicas for svc in rt.services.values())

        meter = self._meters.get(runtime.cls)
        if meter is not None:
            meter.replica_fn = replica_count
            meter.observe()
            return meter

        def db_units(coll=runtime.dht.collection) -> float:
            return self.store.units_for(coll)

        meter = ClassCostMeter(self.env, runtime.cls, self.model, replica_count, db_units)
        self._meters[runtime.cls] = meter
        return meter

    def unregister(self, cls: str) -> None:
        self._meters.pop(cls, None)

    def meter(self, cls: str) -> ClassCostMeter | None:
        return self._meters.get(cls)

    def observe_all(self) -> None:
        for meter in self._meters.values():
            meter.observe()

    def report(self) -> list[dict[str, float | str]]:
        """Per-class accrued spend and projected monthly run rate."""
        rows: list[dict[str, float | str]] = []
        for cls in sorted(self._meters):
            meter = self._meters[cls]
            rows.append(
                {
                    "class": cls,
                    "accrued_usd": round(meter.accrued_usd(), 6),
                    "monthly_run_rate_usd": round(meter.monthly_run_rate_usd(), 2),
                }
            )
        return rows
