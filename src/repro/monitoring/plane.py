"""The metrics plane facade: labeled registry + scraper + SLO evaluator.

One object owns the whole observability pipeline the way the QoS and
durability planes own theirs: the platform constructs a
:class:`MetricsPlane` only when ``PlatformConfig().metrics.enabled`` is
True, so a baseline platform never builds a scraper, never registers a
collector, and executes byte-identically with this module unimported.

The plane is **pull-model**: nothing is added to data-plane hot paths.
Every scrape runs the registered collectors — each plane contributes a
``collect_metrics(registry)`` hook that refreshes labeled instruments
from the statistics it already keeps — then samples the registry into
ring-buffered time series and hands the clock to the SLO evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ValidationError
from repro.monitoring.collector import MonitoringSystem
from repro.monitoring.events import EventLog
from repro.monitoring.exposition import metrics_json, render_openmetrics
from repro.monitoring.metrics import MetricsRegistry, set_counter
from repro.monitoring.scraper import MetricsScraper
from repro.monitoring.slo import SloConfig, SloEvaluator
from repro.plane import Plane
from repro.sim.kernel import Environment

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.platform.oparaca import Oparaca

__all__ = ["MetricsConfig", "MetricsPlane", "set_counter"]


@dataclass(frozen=True)
class MetricsConfig:
    """Construction-time knobs of the metrics plane.

    Attributes:
        enabled: master switch; when False the platform never builds a
            plane and no collector, scraper, or SLO evaluator exists.
        scrape_interval_s: simulated seconds between scrapes.
        retention_points: ring-buffer capacity per time series.
        slo: burn-rate evaluation tuning of the SLO evaluator that runs
            on top of the scraper.

    The plane also turns on the simulation kernel's per-event-type
    dispatch profiling and exports it as metrics.
    """

    enabled: bool = False
    scrape_interval_s: float = 0.5
    retention_points: int = 720
    slo: SloConfig = field(default_factory=SloConfig)

    def __post_init__(self) -> None:
        if self.scrape_interval_s <= 0:
            raise ValidationError(
                f"scrape_interval_s must be > 0, got {self.scrape_interval_s}"
            )
        if self.retention_points < 2:
            raise ValidationError(
                f"retention_points must be >= 2, got {self.retention_points}"
            )


class MetricsPlane(Plane):
    """Owns scraping, exposition, and SLO evaluation for one platform."""

    name = "metrics"

    def __init__(
        self,
        env: Environment,
        monitoring: MonitoringSystem,
        events: EventLog | None = None,
        config: MetricsConfig | None = None,
    ) -> None:
        self.env = env
        self.monitoring = monitoring
        self.events = events
        self.config = config or MetricsConfig(enabled=True)
        self.registry: MetricsRegistry = monitoring.registry
        self.scraper = MetricsScraper(
            env,
            self.registry,
            interval_s=self.config.scrape_interval_s,
            capacity=self.config.retention_points,
        )
        self.slo = SloEvaluator(env, monitoring, events=events, config=self.config.slo)
        self.scraper.on_scrape.append(self.slo.evaluate)
        self._platform: "Oparaca | None" = None
        self._generation = -1

    # -- wiring ------------------------------------------------------------

    def install(self, platform: "Oparaca") -> None:
        """Attach collectors over every plane the platform runs."""
        self._platform = platform
        platform.env.enable_profiling()
        self.scraper.collectors.append(self._collect)
        self.slo.planes = platform.planes

    def start(self) -> None:
        self.scraper.start()

    def stop(self) -> None:
        self.scraper.stop()

    # -- collection --------------------------------------------------------

    def _collect(self) -> None:
        platform = self._platform
        if platform is None:
            return
        registry = self.registry
        self._collect_front_door(platform, registry)
        self._collect_runtimes(platform, registry)
        platform.queue.collect_metrics(registry)
        for plane in platform.planes.values():
            plane.collect_metrics(registry)
        platform.env.profile.collect_metrics(registry)
        self._watch_classes(platform)

    def _collect_front_door(self, platform: "Oparaca", registry: MetricsRegistry) -> None:
        """Gateway, invocation engine, and document store counters."""
        gateway = platform.gateway
        set_counter(registry, "gateway.requests", float(gateway.requests), {"plane": "gateway"})
        set_counter(registry, "gateway.rejected", float(gateway.rejected), {"plane": "gateway"})
        engine = platform.engine
        engine_counters = {
            "invoker.invocations": engine.invocations,
            "invoker.cas_conflicts": engine.cas_conflicts,
            "invoker.fault_retries": engine.fault_retries,
            "invoker.timeouts": engine.timeouts,
            "invoker.stale_reads": engine.stale_reads,
        }
        for name, value in engine_counters.items():
            set_counter(registry, name, float(value), {"plane": "invoker"})
        registry.gauge("invoker.open_breakers", {"plane": "invoker"}).set(
            float(engine.breakers.open_count())
        )
        store = platform.store
        set_counter(registry, "db.write_ops", float(store.write_ops), {"plane": "storage"})
        set_counter(registry, "db.docs_written", float(store.docs_written), {"plane": "storage"})
        query_labels = {"plane": "storage", "backend": store.backend.name}
        set_counter(registry, "db.query_ops", float(store.query_ops), query_labels)
        set_counter(
            registry,
            "db.query_docs_scanned",
            float(store.query_docs_scanned),
            query_labels,
        )
        registry.gauge("db.backlog_s", {"plane": "storage"}).set(store.backlog_seconds)

    def _collect_runtimes(self, platform: "Oparaca", registry: MetricsRegistry) -> None:
        """Per-class data-plane health: DHT read path, write-behind,
        FaaS cold starts and in-flight depth — labeled by class."""
        for cls, runtime in platform.crm.runtimes.items():
            labels = {"class": cls, "plane": "storage"}
            runtime.dht.collect_metrics(registry, labels)
            cold = sum(svc.cold_starts for svc in runtime.services.values())
            in_flight = sum(
                svc.total_in_flight() for svc in runtime.services.values()
            )
            replicas = sum(svc.replicas for svc in runtime.services.values())
            faas_labels = {"class": cls, "plane": "faas"}
            set_counter(registry, "faas.cold_starts", float(cold), faas_labels)
            registry.gauge("faas.in_flight", faas_labels).set(float(in_flight))
            registry.gauge("faas.replicas", faas_labels).set(float(replicas))
            obs = platform.monitoring.for_class(cls)
            cls_labels = {"class": cls, "plane": "invoker"}
            set_counter(registry, "class.completed", float(obs.completed), cls_labels)
            set_counter(registry, "class.failed", float(obs.failed), cls_labels)
            registry.gauge("class.throughput_rps", cls_labels).set(obs.throughput_rps)

    def _watch_classes(self, platform: "Oparaca") -> None:
        """Compile each deployed class's current NFRs into objectives;
        only after a deploy, update or undeploy."""
        crm = platform.crm
        if crm.generation == self._generation:
            return
        self._generation = crm.generation
        runtimes = crm.runtimes
        for cls in [cls for cls in self.slo.watched if cls not in runtimes]:
            self.slo.unwatch_class(cls)
        for cls, runtime in runtimes.items():
            self.slo.watch_class(cls, runtime)

    # -- reporting ---------------------------------------------------------

    def exposition(self) -> str:
        """The registry's current state as OpenMetrics text."""
        return render_openmetrics(self.registry, now=self.env.now)

    def json_report(self, indent: int | None = None) -> str:
        """Instruments + sampled series history as JSON."""
        return metrics_json(self.registry, scraper=self.scraper, indent=indent)

    def stats(self) -> dict[str, Any]:
        return {
            "scrapes": self.scraper.scrapes,
            "scrape_interval_s": self.scraper.interval_s,
            "series": len(self.scraper),
            "instruments": len(self.registry),
            "slo_evaluations": self.slo.evaluations,
            "slo_alerts": len(self.slo.alerts),
            "slo_firing": len(self.slo.firing()),
        }
