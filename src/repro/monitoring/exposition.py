"""Prometheus/OpenMetrics text exposition and JSON snapshot export.

The registry's dotted metric names (``qos.queue_delay_s``) are
sanitized into the exposition grammar (``qos_queue_delay_s``); label
values are escaped per the OpenMetrics spec (backslash, double-quote,
newline).  Two *distinct* registry names can collide after
sanitization (``a.b`` and ``a_b``); the renderer keeps every sample and
emits the ``# TYPE`` header once per exposition name, first kind wins —
collisions are an authoring smell, not data loss.

Histograms are exposed as Prometheus *summaries*: ``_count``, ``_sum``,
and one ``{quantile="..."}`` sample per sampled percentile.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Any

from repro.monitoring.metrics import LabelKey, MetricsRegistry, render_series_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitoring.scraper import MetricsScraper

__all__ = [
    "sanitize_metric_name",
    "escape_label_value",
    "render_labels",
    "render_openmetrics",
    "metrics_json",
]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_QUANTILES = (50, 95, 99)


def sanitize_metric_name(name: str) -> str:
    """Map a registry name onto the exposition grammar.

    Invalid characters (dots, dashes, spaces, braces...) become ``_``;
    a leading digit gets a ``_`` prefix.  Lossy by design — see the
    module docstring on collisions.
    """
    cleaned = _NAME_OK.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = f"_{cleaned}"
    return cleaned or "_"


def escape_label_value(value: str) -> str:
    """Escape a label value per the OpenMetrics text format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_labels(labels: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    """``{k="v",...}`` or the empty string for an unlabeled series."""
    pairs = tuple(labels) + tuple(extra)
    if not pairs:
        return ""
    inner = ",".join(
        f'{sanitize_metric_name(k)}="{escape_label_value(str(v))}"' for k, v in pairs
    )
    return f"{{{inner}}}"


def _format_value(value: float) -> str:
    # Integral floats print without the trailing ".0" noise; everything
    # else keeps repr precision so replays diff cleanly.
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_openmetrics(registry: MetricsRegistry, now: float | None = None) -> str:
    """The registry's current state in the OpenMetrics text format."""
    lines: list[str] = []
    if now is not None:
        lines.append(f"# Scraped at simulated t={now:.6f}s")
    typed: set[str] = set()

    def type_line(exposition_name: str, kind: str) -> None:
        if exposition_name not in typed:
            typed.add(exposition_name)
            lines.append(f"# TYPE {exposition_name} {kind}")

    for gauge in sorted(registry.gauges(), key=lambda g: (g.name, g.labels)):
        exposition = sanitize_metric_name(gauge.name)
        type_line(exposition, "gauge")
        lines.append(
            f"{exposition}{render_labels(gauge.labels)} {_format_value(gauge.value)}"
        )
    for histogram in sorted(registry.histograms(), key=lambda h: (h.name, h.labels)):
        exposition = sanitize_metric_name(histogram.name)
        type_line(exposition, "summary")
        labels = render_labels(histogram.labels)
        lines.append(f"{exposition}_count{labels} {histogram.count}")
        lines.append(f"{exposition}_sum{labels} {_format_value(histogram.sum)}")
        for pct in _QUANTILES:
            value = histogram.percentile(pct) if histogram.count else 0.0
            quantile = (("quantile", f"0.{pct}"),)
            lines.append(
                f"{exposition}{render_labels(histogram.labels, quantile)} "
                f"{_format_value(value)}"
            )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def metrics_json(
    registry: MetricsRegistry,
    scraper: "MetricsScraper | None" = None,
    indent: int | None = None,
) -> str:
    """A JSON snapshot: instruments now, plus sampled series history."""
    doc: dict[str, Any] = {
        "instruments": {
            "gauges": [
                {
                    "name": g.name,
                    "labels": dict(g.labels),
                    "value": g.value,
                }
                for g in sorted(registry.gauges(), key=lambda g: (g.name, g.labels))
            ],
            "histograms": [
                {
                    "name": h.name,
                    "labels": dict(h.labels),
                    "count": h.count,
                    "sum": h.sum,
                    "mean": h.mean,
                    "max": h.max,
                    "p50": h.percentile(50) if h.count else 0.0,
                    "p95": h.percentile(95) if h.count else 0.0,
                    "p99": h.percentile(99) if h.count else 0.0,
                }
                for h in sorted(registry.histograms(), key=lambda h: (h.name, h.labels))
            ],
        },
    }
    if scraper is not None:
        doc["scrape"] = {
            "interval_s": scraper.interval_s,
            "scrapes": scraper.scrapes,
            "series": [
                {
                    "name": series.name,
                    "labels": dict(series.labels),
                    "kind": series.kind,
                    "series_id": render_series_name(series.name, series.labels),
                    "points": [[at, value] for at, value in series.points()],
                }
                for series in scraper.all_series()
            ],
        }
    return json.dumps(doc, indent=indent, default=str)
