"""Exporters for traces, events, and platform summaries.

Two consumable formats:

* :func:`to_chrome_trace` / :func:`chrome_trace_json` — the Chrome
  ``trace_event`` JSON format, loadable in ``chrome://tracing`` or
  Perfetto.  Each span becomes a complete ("X") event; traces map to
  thread lanes so concurrent invocations render side by side.
* :func:`summary_report` / :func:`format_summary` — an aggregate view:
  per-span-name latency breakdowns and control-plane event counts; the
  text form also prints every state section of an observability report
  (the data plane's and each plane's ``stats()``).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.render import render
from repro.stats import nearest_rank

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.monitoring.events import EventLog
    from repro.monitoring.tracing import Span, Tracer

__all__ = [
    "to_chrome_trace",
    "chrome_trace_json",
    "span_breakdown",
    "summary_report",
    "format_summary",
]

_US = 1_000_000.0  # trace_event timestamps are microseconds


def to_chrome_trace(spans: "Iterable[Span]") -> dict[str, Any]:
    """Convert spans into a Chrome ``trace_event`` document.

    Every trace id gets its own ``tid`` lane under one ``pid``; span
    attributes travel in ``args`` together with the span/parent ids, so
    the tree can be reconstructed from the export alone.
    """
    lanes: dict[str, int] = {}
    events: list[dict[str, Any]] = []
    for span in spans:
        tid = lanes.setdefault(span.trace_id, len(lanes) + 1)
        end = span.end if span.end is not None else span.start
        events.append(
            {
                "name": span.name,
                "cat": "oaas",
                "ph": "X",
                "ts": span.start * _US,
                "dur": (end - span.start) * _US,
                "pid": 1,
                "tid": tid,
                "args": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **span.attrs,
                },
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.monitoring.export"},
    }


def chrome_trace_json(tracer: "Tracer", trace_id: str | None = None, indent: int | None = None) -> str:
    """Serialize a tracer's spans (or one trace) as trace_event JSON."""
    spans = tracer.trace(trace_id) if trace_id is not None else tracer.spans()
    return json.dumps(to_chrome_trace(spans), indent=indent, default=str)


def span_breakdown(spans: "Iterable[Span]") -> dict[str, dict[str, float]]:
    """Per-span-name latency statistics over *finished* spans.

    Span names are collapsed to their first word (``task.offload
    Image.resize`` → ``task.offload``) so one row summarizes a phase
    across services.
    """
    groups: dict[str, list[float]] = {}
    for span in spans:
        if span.end is None:
            continue
        groups.setdefault(span.name.split(" ", 1)[0], []).append(span.duration_s)
    out: dict[str, dict[str, float]] = {}
    for name in sorted(groups):
        durations = sorted(groups[name])
        out[name] = {
            "count": len(durations),
            "mean_ms": sum(durations) / len(durations) * 1000.0,
            "p95_ms": nearest_rank(durations, 95) * 1000.0,
            "max_ms": durations[-1] * 1000.0,
        }
    return out


def summary_report(
    tracer: "Tracer | None" = None, events: "EventLog | None" = None
) -> dict[str, Any]:
    """Span latency breakdowns and event counts, for whichever of the
    two sources exists."""
    report: dict[str, Any] = {}
    if tracer is not None:
        report["spans"] = span_breakdown(tracer.spans())
        report["span_count"] = len(tracer)
    if events is not None:
        report["events"] = events.type_counts()
        report["event_count"] = len(events)
    return report


#: The summary's own keys.  Every other section of an observability
#: report is a state section (``Oparaca.sections()``) or the metrics
#: plane's SLO report; the NFR verdicts print through
#: ``format_nfr_report``.
_SUMMARY_KEYS = ("spans", "span_count", "events", "event_count", "nfr")


def format_summary(report: Mapping[str, Any]) -> str:
    """Render :func:`summary_report` output, and every state section of
    an observability report under its name, as readable text."""
    lines: list[str] = ["=== observability summary ==="]
    if report.get("spans"):
        lines.append(f"\nspan latency breakdown ({report['span_count']} spans):")
        lines.append(render(report["spans"]))
    elif "span_count" in report:
        lines.append("\nno finished spans recorded (is tracing enabled?)")
    if report.get("events"):
        lines.append(f"\ncontrol-plane events ({report['event_count']} total):")
        lines.append(render(dict(sorted(report["events"].items()))))
    elif "event_count" in report:
        lines.append("\nno control-plane events recorded (is the event log enabled?)")
    for name, section in report.items():
        if name not in _SUMMARY_KEYS:
            lines += ["", render(section, name)]
    return "\n".join(lines)
