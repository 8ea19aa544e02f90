"""Monitoring: metrics, tracing, control-plane events, and reporting."""

from repro.monitoring.collector import ClassObservations, MonitoringSystem
from repro.monitoring.events import EventLog, PlatformEvent
from repro.monitoring.export import (
    chrome_trace_json,
    format_summary,
    span_breakdown,
    summary_report,
    to_chrome_trace,
)
from repro.monitoring.exposition import metrics_json, render_openmetrics
from repro.monitoring.metrics import Gauge, Histogram, MetricsRegistry, SlidingWindow
from repro.monitoring.nfr_report import format_nfr_report, nfr_compliance_report
from repro.monitoring.nfr_table import NfrVerdict
from repro.monitoring.plane import MetricsConfig, MetricsPlane
from repro.monitoring.scraper import MetricsScraper, TimeSeries
from repro.monitoring.slo import BurnWindow, SloAlert, SloConfig, SloEvaluator
from repro.monitoring.tracing import Span, Tracer

__all__ = [
    "Span",
    "Tracer",
    "EventLog",
    "PlatformEvent",
    "ClassObservations",
    "MonitoringSystem",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SlidingWindow",
    "MetricsScraper",
    "TimeSeries",
    "MetricsConfig",
    "MetricsPlane",
    "BurnWindow",
    "SloAlert",
    "SloConfig",
    "SloEvaluator",
    "render_openmetrics",
    "metrics_json",
    "to_chrome_trace",
    "chrome_trace_json",
    "span_breakdown",
    "summary_report",
    "format_summary",
    "NfrVerdict",
    "nfr_compliance_report",
    "format_nfr_report",
]
