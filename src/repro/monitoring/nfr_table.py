"""The NFR table: each declared requirement of a deployed class, compiled once.

:func:`class_rows` compiles a class's declared NFRs into
:class:`Objective` rows — class, requirement, target, observe rule and
enforcer — that two readers share: the NFR report reads each row at
"now" (:meth:`Objective.verdict`), the SLO evaluator reads the same rows
over its burn windows (``count``, by ``rule``).  The built-in rows come
from the declared QoS; a declared latency is a **p95** bound and a
declared throughput a capacity, violated only while the class's services
are saturated (:func:`_saturated`) *and* observed throughput runs below
the target minus ``THROUGHPUT_TOLERANCE``.  A plane contributes the rows
it owns through :meth:`~repro.plane.Plane.verdicts`: the durability
plane ``durability_rpo_s``, the federation plane ``jurisdiction``, the
chaos injector ``availability_under_fault``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Container, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.model.nfr import QosRequirement
    from repro.monitoring.collector import MonitoringSystem
    from repro.plane import Plane

__all__ = ["NfrVerdict", "Objective", "class_rows", "enforcers"]

#: Fraction of requests that must meet a declared latency bound.
LATENCY_OBJECTIVE = 0.95
#: Deficit fraction a saturated class may run under its declared
#: throughput before the row is violated.
THROUGHPUT_TOLERANCE = 0.1
#: The table's row order within one class.
ORDER = ("durability_rpo_s", "jurisdiction", "latency_p95_ms", "throughput_rps",
         "availability", "availability_under_fault")
#: How the SLO evaluator reads a row, in evaluation order: the burn rate
#: of bad events, the share of violated scrape ticks, a point event.
RULES = ("burn", "ticks", "point")
#: Declared QoS requirement -> (mechanism, enforcer): the first running
#: mechanism enforces it.  ``None`` always runs.
ENFORCERS: dict[str, tuple[tuple[str | None, str], ...]] = {
    "latency": (("qos", "qos brownout/EDF"), ("optimizer", "optimizer floor"),
                ("federation", "federation placement")),
    "throughput": (("qos", "qos admission"), ("optimizer", "optimizer floor")),
    "availability": ((None, "resilience policy"),),
}


@dataclass(frozen=True)
class NfrVerdict:
    """One requirement of one class, judged against live observations."""

    cls: str
    requirement: str  # an ORDER name
    target: float
    observed: float
    met: bool
    #: Positive margin = headroom, negative = how far past the target.
    margin: float
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "cls": self.cls,
            "requirement": self.requirement,
            "target": self.target,
            "observed": self.observed,
            "verdict": "met" if self.met else "violated",
            "margin": self.margin,
            "detail": self.detail,
        }


@dataclass(eq=False)
class Objective:
    """One row of the NFR table.  ``observe`` reads it at "now" —
    ``(observed, met, detail)``, or ``None`` while there is nothing to
    judge.  A row with an ``slo`` is also read by the SLO evaluator:
    ``count`` gives cumulative ``(total, bad)`` events, ``detail`` names
    the objective, ``alert_detail`` words an alert from a verdict, and
    ``arm(on)`` starts or stops the observation ``count`` reads."""

    cls: str
    requirement: str
    target: float
    enforcer: str | None
    observe: Callable[[], tuple[float, bool, str] | None]
    at_most: bool = False
    slo: str | None = None
    rule: str = "burn"
    budget: float = 0.0
    count: Callable[[], tuple[int, int]] | None = None
    detail: str = ""
    alert_detail: Callable[[NfrVerdict], str] | None = None
    arm: Callable[[bool], None] | None = None

    def verdict(self) -> NfrVerdict | None:
        read = self.observe()
        if read is None:
            return None
        observed, met, detail = read
        margin = self.target - observed if self.at_most else observed - self.target
        return NfrVerdict(self.cls, self.requirement, self.target, observed, met, margin, detail)


def _saturated(svc: Any) -> bool:
    """Whether one function service runs at capacity: 80% of its replicas'
    request slots in flight — the throughput row and the optimizer ask."""
    replicas = svc.replicas
    concurrency = svc.definition.provision.concurrency
    return replicas > 0 and svc.total_in_flight() >= replicas * concurrency * 0.8


def enforcers(qos: QosRequirement, mechanisms: Container[str]) -> dict[str, str | None]:
    """Declared QoS requirement -> the running mechanism that enforces
    it (``None``: none does); ``mechanisms`` are the plane registry's
    names, plus ``"optimizer"``."""
    declared = {"latency": qos.latency_ms, "throughput": qos.throughput_rps,
                "availability": qos.availability}
    return {
        name: next((by for on, by in ENFORCERS[name] if on is None or on in mechanisms), None)
        for name, target in declared.items()
        if target is not None
    }


def class_rows(
    cls: str, runtime: Any, monitoring: MonitoringSystem, planes: Mapping[str, Plane]
) -> list[Objective]:
    """Compile one deployed class's rows, in table order (``runtime``
    is duck-typed: ``resolved.nfr.qos``, ``services``, ``enforcers``)."""
    qos = runtime.resolved.nfr.qos
    by = runtime.enforcers
    obs = monitoring.for_class(cls)
    rows = [row for plane in planes.values() for row in plane.verdicts(cls, runtime)]

    if qos.latency_ms is not None:
        bound, pct = qos.latency_ms, LATENCY_OBJECTIVE * 100

        def latency() -> tuple[float, bool, str]:
            samples = len(obs.window)
            if samples:
                observed = obs.latency_pct_ms(pct)
                detail = f"window p{pct:g} over {samples} samples"
            else:
                observed = obs.latency.percentile(pct) * 1000.0 if obs.latency.count else 0.0
                detail = f"lifetime p{pct:g} over {obs.latency.count} samples"
            return observed, observed <= bound, detail

        rows.append(
            Objective(
                cls, "latency_p95_ms", bound, by.get("latency"), latency, at_most=True,
                slo="latency_p95", budget=1.0 - LATENCY_OBJECTIVE,
                count=lambda: (obs.completed + obs.failed, obs.slow),
                detail=f"bad = latency > {bound:g}ms (objective p{pct:g})",
                arm=lambda on: obs.set_latency_slo(bound / 1000.0 if on else None),
            )
        )
    if qos.throughput_rps is not None:
        capacity = qos.throughput_rps

        def throughput() -> tuple[float, bool, str]:
            observed = obs.throughput_rps
            if not any(map(_saturated, runtime.services.values())):
                return observed, True, "capacity target; services not saturated"
            met = observed >= capacity * (1.0 - THROUGHPUT_TOLERANCE)
            return observed, met, "services saturated"

        rows.append(
            Objective(
                cls, "throughput_rps", capacity, by.get("throughput"), throughput,
                slo="throughput", rule="ticks", budget=THROUGHPUT_TOLERANCE,
                detail="capacity objective while saturated",
                alert_detail=lambda v: (
                    f"observed {v.observed:.1f} rps < declared {v.target:g} rps while saturated"
                ),
            )
        )
    if qos.availability is not None:
        floor = qos.availability

        def availability() -> tuple[float, bool, str]:
            samples = len(obs.window)
            if samples:
                observed, detail = 1.0 - obs.error_rate, f"window over {samples} samples"
            else:
                total = obs.completed + obs.failed
                observed = obs.completed / total if total else 1.0
                detail = f"lifetime over {total} invocations"
            return observed, observed >= floor, detail

        rows.append(
            Objective(
                cls, "availability", floor, by.get("availability"), availability,
                slo="availability" if floor < 1.0 else None, budget=1.0 - floor,
                count=lambda: (obs.completed + obs.failed, obs.failed),
                detail="bad = failed invocation",
            )
        )
    return sorted(rows, key=lambda row: ORDER.index(row.requirement))
