"""NFR compliance reporting — the audit side of the §III-B loop.

The optimizer *reacts* to the gap between declared QoS and observed
behaviour; this module *reports* it: every row of each deployed class's
NFR table (:mod:`repro.monitoring.nfr_table`) is read at "now" into a
verdict (met / violated, by margin), so the platform's self-optimization
is checkable rather than taken on faith.  The SLO evaluator reads the
same rows over its burn windows, so the two judge one declaration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.monitoring.nfr_table import NfrVerdict, class_rows
from repro.render import render

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.monitoring.collector import MonitoringSystem
    from repro.plane import Plane

__all__ = ["nfr_compliance_report", "format_nfr_report"]


def nfr_compliance_report(
    runtimes: Mapping[str, Any],
    monitoring: "MonitoringSystem",
    planes: Mapping[str, Plane] | None = None,
) -> list[NfrVerdict]:
    """Judge every deployed class's NFR table against observations.

    ``runtimes`` maps class name to its runtime (the CRM's ``runtimes``
    mapping fits directly); ``planes`` is the platform's plane registry,
    whose planes contribute the rows they own.  A row with nothing to
    judge yet (no measured recovery, no traffic under fault) is left out.
    """
    verdicts = []
    for cls in sorted(runtimes):
        for row in class_rows(cls, runtimes[cls], monitoring, planes or {}):
            verdict = row.verdict()
            if verdict is not None:
                verdicts.append(verdict)
    return verdicts


def format_nfr_report(verdicts: list[NfrVerdict]) -> str:
    """Render verdicts as a per-class compliance table."""
    if not verdicts:
        return "(no classes declare QoS requirements)"
    rows = [{**v.to_dict(), "verdict": "met" if v.met else "VIOLATED"} for v in verdicts]
    violated = sum(1 for v in verdicts if not v.met)
    return f"{render(rows)}\n{len(verdicts)} requirement(s) checked, {violated} violated"
