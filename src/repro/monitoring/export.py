"""Exporters for traces, events, and platform summaries.

Two consumable formats:

* :func:`to_chrome_trace` / :func:`chrome_trace_json` — the Chrome
  ``trace_event`` JSON format, loadable in ``chrome://tracing`` or
  Perfetto.  Each span becomes a complete ("X") event; traces map to
  thread lanes so concurrent invocations render side by side.
* :func:`summary_report` / :func:`format_summary` — an aggregate view:
  per-span-name latency breakdowns, control-plane event counts, and
  per-class data-plane health (throughput, p99, DHT hit rate, pending
  write-behind, cold starts, queue depth).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.stats import nearest_rank

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.monitoring.collector import MonitoringSystem
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
    tracer: "Tracer | None" = None,
    events: "EventLog | None" = None,
    monitoring: "MonitoringSystem | None" = None,
    runtimes: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Aggregate observability report across whatever sources exist.

    ``runtimes`` is a mapping ``cls -> ClassRuntime`` (duck-typed: only
    ``dht`` and ``services`` are read) contributing DHT hit rates,
    pending write-behind, cold-start counts, and queue depths.
    """
    report: dict[str, Any] = {}
    if tracer is not None:
        report["spans"] = span_breakdown(tracer.spans())
        report["span_count"] = len(tracer)
    if events is not None:
        report["events"] = events.type_counts()
        report["event_count"] = len(events)
    classes: dict[str, dict[str, Any]] = {}
    if monitoring is not None:
        for cls in monitoring.observed_classes:
            obs = monitoring.for_class(cls)
            classes[cls] = {
                "completed": obs.completed,
                "failed": obs.failed,
                "throughput_rps": obs.throughput_rps,
                "error_rate": obs.error_rate,
                "latency_p99_ms": obs.latency_p99_ms(),
            }
    if runtimes is not None:
        for cls, runtime in runtimes.items():
            row = classes.setdefault(cls, {})
            dht = runtime.dht
            lookups = dht.mem_hits + dht.mem_misses
            row["dht_hit_rate"] = dht.mem_hits / lookups if lookups else 0.0
            row["dht_pending_writes"] = dht.pending_writes()
            read_path = dht.read_path_stats
            row["read_coalesced"] = read_path["read_coalesced"]
            row["near_hits"] = read_path["near_hits"]
            row["batched_reads"] = read_path["batched_reads"]
            row["cold_starts"] = sum(
                getattr(svc, "cold_starts", 0) for svc in runtime.services.values()
            )
            row["queue_depth"] = sum(
                svc.total_in_flight() for svc in runtime.services.values()
            )
    if classes:
        report["classes"] = classes
    return report


def format_summary(report: Mapping[str, Any]) -> str:
    """Render :func:`summary_report` output as readable text."""
    lines: list[str] = ["=== observability summary ==="]
    spans = report.get("spans") or {}
    if spans:
        lines.append(f"\nspan latency breakdown ({report.get('span_count', 0)} spans):")
        lines.append(f"  {'phase':<16} {'count':>8} {'mean_ms':>10} {'p95_ms':>10} {'max_ms':>10}")
        for name, stats in spans.items():
            lines.append(
                f"  {name:<16} {stats['count']:>8.0f} {stats['mean_ms']:>10.3f} "
                f"{stats['p95_ms']:>10.3f} {stats['max_ms']:>10.3f}"
            )
    elif "span_count" in report:
        lines.append("\nno finished spans recorded (is tracing enabled?)")
    event_counts = report.get("events") or {}
    if event_counts:
        lines.append(f"\ncontrol-plane events ({report.get('event_count', 0)} total):")
        for etype in sorted(event_counts):
            lines.append(f"  {etype:<22} {event_counts[etype]}")
    elif "event_count" in report:
        lines.append("\nno control-plane events recorded (is the event log enabled?)")
    qos = report.get("qos") or {}
    if qos:
        admission = qos.get("admission") or {}
        fair_queue = qos.get("fair_queue") or {}
        shedder = qos.get("shedder") or {}
        lines.append("\nqos enforcement plane:")
        for cls in sorted(admission):
            row = admission[cls]
            lines.append(
                f"  {cls:<16} admitted={row['admitted']} "
                f"rejected_rate={row['rejected_rate']} "
                f"rejected_concurrency={row['rejected_concurrency']}"
            )
        if fair_queue:
            lines.append(
                f"  fair queue: pushed={fair_queue.get('pushed', 0)} "
                f"served={fair_queue.get('served', 0)} "
                f"depth={fair_queue.get('depth', 0)}"
            )
        if shedder:
            shed_by_class = shedder.get("shed_by_class") or {}
            shed = " ".join(
                f"{cls}={count}" for cls, count in sorted(shed_by_class.items())
            )
            lines.append(
                f"  shedder: passes={shedder.get('passes', 0)} "
                f"shed={shedder.get('shed_total', 0)}"
                + (f" ({shed})" if shed else "")
            )
    durability = report.get("durability") or {}
    if durability:
        dur_classes = durability.get("classes") or {}
        lines.append("\ndurability plane:")
        lines.append(
            f"  cuts={durability.get('cuts_total', 0)} "
            f"epoch_writes={durability.get('epoch_writes_total', 0)} "
            f"recoveries={durability.get('recoveries_total', 0)} "
            f"restores={durability.get('restores_total', 0)}"
        )
        for cls in sorted(dur_classes):
            row = dur_classes[cls]
            policy = row.get("policy") or {}
            parts = [f"  {cls:<16} mode={policy.get('mode', '?')}"]
            if "cuts_taken" in row:
                parts.append(
                    f"cuts={row['cuts_taken']} generations={row['generation_count']} "
                    f"bytes={row['snapshot_bytes']}"
                )
            recovery = row.get("last_recovery")
            if recovery:
                parts.append(
                    f"rpo={recovery['rpo_s']:.4f}s rto={recovery['rto_s']:.4f}s "
                    f"lost={recovery['lost_writes']}"
                )
            lines.append(" ".join(parts))
    classes = report.get("classes") or {}
    if classes:
        lines.append("\nper-class data plane:")
        for cls in sorted(classes):
            row = classes[cls]
            parts = [f"  {cls}:"]
            if "completed" in row:
                parts.append(
                    f"ok={row['completed']} err={row['failed']} "
                    f"rps={row['throughput_rps']:.1f} p99={row['latency_p99_ms']:.1f}ms"
                )
            if "dht_hit_rate" in row:
                parts.append(
                    f"dht_hit={row['dht_hit_rate'] * 100:.0f}% "
                    f"wb_pending={row['dht_pending_writes']} "
                    f"cold_starts={row['cold_starts']} queue={row['queue_depth']}"
                )
            if row.get("read_coalesced") or row.get("near_hits") or row.get(
                "batched_reads"
            ):
                parts.append(
                    f"coalesced={row['read_coalesced']} "
                    f"near_hits={row['near_hits']} "
                    f"batched_reads={row['batched_reads']}"
                )
            lines.append(" ".join(parts))
    return "\n".join(lines)
