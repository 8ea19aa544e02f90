"""NFR compliance reporting — the audit side of the §III-B loop.

The optimizer *reacts* to the gap between declared QoS and observed
behaviour; this module *reports* it: each deployed class's live
:class:`~repro.monitoring.collector.ClassObservations` are joined
against its declared :class:`~repro.model.nfr.QosRequirement` and every
set target yields a per-class verdict (met / violated, by margin), so
the platform's self-optimization is checkable rather than taken on
faith.

Throughput verdicts follow the SLO evaluator's and the optimizer's
semantics (one saturation test, :func:`_saturated`): a declared
throughput is a *capacity* the class must be able to sustain, so falling
short only counts as a violation while the class's services are
saturated — an idle class trivially meets its capacity requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.monitoring.collector import MonitoringSystem
    from repro.plane import Plane

__all__ = ["NfrVerdict", "nfr_compliance_report", "format_nfr_report"]


@dataclass(frozen=True)
class NfrVerdict:
    """One requirement of one class, judged against live observations."""

    cls: str
    requirement: str  # "latency_p99_ms" | "throughput_rps" | "availability"
    target: float
    observed: float
    met: bool
    #: Positive margin = headroom, negative = how far past the target.
    margin: float
    detail: str = ""

    @property
    def verdict(self) -> str:
        return "met" if self.met else "violated"

    def to_dict(self) -> dict[str, Any]:
        return {
            "cls": self.cls,
            "requirement": self.requirement,
            "target": self.target,
            "observed": self.observed,
            "verdict": self.verdict,
            "margin": self.margin,
            "detail": self.detail,
        }


def _judge(
    cls: str,
    requirement: str,
    target: float,
    observed: float,
    *,
    at_most: bool,
    detail: str,
    excused: bool = False,
) -> NfrVerdict:
    """One verdict row: ``observed`` must stay at most (a ceiling, e.g.
    latency) or at least (a floor, e.g. availability) ``target``;
    ``excused`` waives a miss without hiding its margin."""
    if at_most:
        met, margin = observed <= target, target - observed
    else:
        met, margin = observed >= target, observed - target
    return NfrVerdict(cls, requirement, target, observed, met or excused, margin, detail)


def _saturated(svc: Any) -> bool:
    """Whether one function service runs at capacity: 80% of its
    replicas' request slots in flight.  The one saturation test — the
    NFR report, the SLO throughput objective and the requirement
    optimizer all ask it."""
    replicas = svc.replicas
    concurrency = svc.definition.provision.concurrency
    return replicas > 0 and svc.total_in_flight() >= replicas * concurrency * 0.8


def nfr_compliance_report(
    runtimes: Mapping[str, Any],
    monitoring: "MonitoringSystem",
    planes: Mapping[str, Plane] | None = None,
) -> list[NfrVerdict]:
    """Judge every deployed class's declared QoS against observations.

    ``runtimes`` maps class name to its runtime (duck-typed: only
    ``resolved.nfr.qos`` and ``services`` are read — the CRM's
    ``runtimes`` mapping fits directly).  Classes with no declared QoS
    produce no built-in verdicts.

    ``planes`` is the platform's plane registry.  Each plane first adds
    the rows it owns through :meth:`~repro.plane.Plane.verdicts` — the
    durability plane a ``durability_rpo_s`` row for a class whose crash
    recovery was measured, the federation plane a ``jurisdiction`` row
    for a constrained class.  Two built-in rows depend on a plane being
    present:

    * with ``"qos"``, latency-declared classes also get a
      ``latency_p95_ms`` verdict against the same target — the
      percentile the overload controller's brownout trigger watches, so
      the report shows the exact signal that drives shedding;
    * with ``"chaos"``, classes declaring an availability target also
      get ``availability_under_fault``: the success fraction restricted
      to invocations completed while the injector held at least one
      fault active — the number that separates a replicated class
      riding out a crash from an ephemeral one losing its state.
    """
    planes = planes or {}
    fault_counts = planes["chaos"].fault_counts() if "chaos" in planes else {}
    verdicts: list[NfrVerdict] = []
    for cls in sorted(runtimes):
        runtime = runtimes[cls]
        for plane in planes.values():
            verdicts.extend(plane.verdicts(cls, runtime))
        qos = runtime.resolved.nfr.qos
        if qos.is_empty:
            continue
        obs = monitoring.for_class(cls)
        window_samples = len(obs.window)

        if qos.latency_ms is not None:
            if window_samples:
                observed = obs.latency_pct_ms(99)
                source = f"window p99 over {window_samples} samples"
            else:
                observed = obs.latency.percentile(99) * 1000.0 if obs.latency.count else 0.0
                source = f"lifetime p99 over {obs.latency.count} samples"
            verdicts.append(
                _judge(cls, "latency_p99_ms", qos.latency_ms, observed, at_most=True, detail=source)
            )
            if "qos" in planes and window_samples:
                verdicts.append(
                    _judge(
                        cls,
                        "latency_p95_ms",
                        qos.latency_ms,
                        obs.latency_pct_ms(95),
                        at_most=True,
                        detail=f"brownout signal over {window_samples} samples",
                    )
                )

        if qos.throughput_rps is not None:
            saturated = any(map(_saturated, runtime.services.values()))
            verdicts.append(
                _judge(
                    cls,
                    "throughput_rps",
                    qos.throughput_rps,
                    obs.throughput_rps,
                    at_most=False,
                    excused=not saturated,
                    detail=(
                        "services saturated"
                        if saturated
                        else "capacity target; services not saturated"
                    ),
                )
            )

        if qos.availability is not None:
            if window_samples:
                observed = 1.0 - obs.error_rate
                source = f"window over {window_samples} samples"
            else:
                total = obs.completed + obs.failed
                observed = obs.completed / total if total else 1.0
                source = f"lifetime over {total} invocations"
            target = qos.availability
            verdicts.append(
                _judge(cls, "availability", target, observed, at_most=False, detail=source)
            )
            completed, failed = fault_counts.get(cls, (0, 0))
            under_fault = completed + failed
            if under_fault:
                verdicts.append(
                    _judge(
                        cls,
                        "availability_under_fault",
                        target,
                        completed / under_fault,
                        at_most=False,
                        detail=f"{under_fault} invocations during fault windows",
                    )
                )
    return verdicts


def format_nfr_report(verdicts: list[NfrVerdict]) -> str:
    """Render verdicts as a per-class compliance table."""
    if not verdicts:
        return "(no classes declare QoS requirements)"
    lines = [
        f"{'class':<16} {'requirement':<26} {'target':>10} {'observed':>10} "
        f"{'margin':>10}  verdict"
    ]
    for v in verdicts:
        mark = "met" if v.met else "VIOLATED"
        # Availability targets like 0.999 need more precision than
        # millisecond/rps targets to be distinguishable from 1.0.
        digits = 4 if v.requirement.startswith("availability") else 2
        lines.append(
            f"{v.cls:<16} {v.requirement:<26} {v.target:>10.{digits}f} "
            f"{v.observed:>10.{digits}f} {v.margin:>+10.{digits}f}  {mark}"
        )
    violated = sum(1 for v in verdicts if not v.met)
    lines.append(f"{len(verdicts)} requirement(s) checked, {violated} violated")
    return "\n".join(lines)
