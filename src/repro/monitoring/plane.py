"""The metrics plane facade: labeled registry + scraper + SLO evaluator.

One object owns the whole observability pipeline the way the QoS and
durability planes own theirs: the platform constructs a
:class:`MetricsPlane` only when ``PlatformConfig().metrics.enabled`` is
True, so a baseline platform never builds a scraper, never registers a
collector, and executes byte-identically with this module unimported.

The plane is **pull-model**: nothing is added to data-plane hot paths.
Every scrape refreshes labeled instruments from the statistics the
platform already keeps — one gauge per number of every state section
(``Oparaca.sections()``: the data plane's, then each plane's
``stats()``; :func:`repro.render.numbers`, labelled ``plane=<section>``)
— then samples the registry into ring-buffered time series and hands
the clock to the SLO evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ValidationError
from repro.monitoring.collector import MonitoringSystem
from repro.monitoring.events import EventLog
from repro.monitoring.exposition import metrics_json, render_openmetrics
from repro.monitoring.metrics import Gauge, MetricsRegistry
from repro.monitoring.scraper import MetricsScraper
from repro.monitoring.slo import SloConfig, SloEvaluator
from repro.plane import Plane
from repro.render import numbers
from repro.sim.kernel import Environment

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.platform.oparaca import Oparaca

__all__ = ["MetricsConfig", "MetricsPlane"]


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
    dispatch profiling, whose ``kernel`` section it then exports.
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
        #: cls -> its new runtime, compiled into SLO rows at the next scrape
        self._changed: dict[str, Any] = {}
        #: the gauges the state sections set at the last scrape
        self._stated: set[Gauge] = set()

    # -- wiring ------------------------------------------------------------

    def install(self, platform: "Oparaca") -> None:
        """Attach the collector over every state section of the platform."""
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
        assert platform is not None  # installed with the collector
        registry = self.registry
        stated = set()
        for section, stats in platform.sections().items():
            for name, labels, value in numbers(stats, section):
                gauge = registry.gauge(name, {**labels, "plane": section})
                gauge.set(value)
                stated.add(gauge)
        # A number that left its section (a retired worker's row, an
        # undeployed class's) leaves the registry and the scraped
        # history too.
        for gauge in self._stated - stated:
            registry.discard(gauge)
            self.scraper.forget(gauge.name, gauge.labels)
        self._stated = stated
        changed, self._changed = self._changed, {}
        for cls, runtime in changed.items():
            self.slo.watch_class(cls, runtime)

    def class_changed(self, cls: str, runtime: Any | None) -> None:
        """A deployed or updated class's objectives compile at the next
        scrape; an undeployed one's go now, with its scraped history."""
        if runtime is not None:
            self._changed[cls] = runtime
            return
        self._changed.pop(cls, None)
        self.slo.unwatch_class(cls)
        self.scraper.forget_labelled("class", cls)

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
            "slo_alerts": self.slo.alerts_total,
            "slo_firing": len(self.slo.firing()),
        }
