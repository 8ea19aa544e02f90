"""The Oparaca platform facade — the library's main entry point.

Wires every substrate together (cluster, scheduler, function registry,
document store, object store, network, monitoring, class runtime
manager, invocation engine, async queue, gateway) and exposes a
synchronous developer API on top of the simulation kernel: each call
advances simulated time just far enough to complete.

Typical use::

    from repro import Oparaca

    oparaca = Oparaca()

    @oparaca.function("img/resize", service_time_s=0.004)
    def resize(ctx):
        ctx.state["width"] = ctx.payload["width"]
        return {"resized": True}

    oparaca.deploy(PACKAGE_YAML)
    obj = oparaca.new_object("Image")
    result = oparaca.invoke(obj, "resize", {"width": 640})
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Generator, Mapping

from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import FaultPlan
from repro.crm.manager import ClassRuntimeManager
from repro.crm.optimizer import RequirementOptimizer
from repro.crm.runtime import ClassRuntime
from repro.crm.template import TemplateCatalog
from repro.durability.plane import DurabilityConfig, DurabilityPlane
from repro import errors
from repro.errors import FunctionExecutionError, OaasError
from repro.faas.deployment_engine import DeploymentModel
from repro.faas.knative import KnativeModel
from repro.faas.registry import FunctionRegistry, Handler, ServiceTime
from repro.federation.plane import FederationConfig, FederationPlane
from repro.invoker.engine import InvocationEngine, split_object_id
from repro.invoker.queue import AsyncInvoker
from repro.invoker.request import InvocationRequest, InvocationResult
from repro.model.pkg import Package, load_package, loads_package
from repro.monitoring.collector import MonitoringSystem
from repro.monitoring.events import EventLog, PlatformEvent
from repro.monitoring.export import chrome_trace_json, summary_report
from repro.monitoring.metrics import label_key, render_series_name
from repro.monitoring.nfr_report import nfr_compliance_report
from repro.monitoring.nfr_table import NfrVerdict
from repro.monitoring.plane import MetricsConfig, MetricsPlane
from repro.monitoring.tracing import Tracer
from repro.orchestrator.cluster import Cluster
from repro.orchestrator.resources import ResourceSpec
from repro.orchestrator.scheduler import Scheduler
from repro.orchestrator.topology import ZoneTopology
from repro.plane import Plane
from repro.platform.gateway import Gateway, HttpRequest, HttpResponse
from repro.qos.plane import QosConfig, QosPlane
from repro.render import numbers
from repro.scheduler.plane import SchedulerConfig, SchedulerPlane
from repro.sim.kernel import Environment, Event, Process, all_of
from repro.sim.network import Network, NetworkModel
from repro.sim.rng import RngStreams
from repro.storage.backends import StorageConfig, make_backend
from repro.storage.kv import DbModel, DocumentStore
from repro.storage.object_store import ObjectStore, ObjectStoreModel

__all__ = ["PlatformConfig", "Oparaca"]


def _summed_services(runtime: ClassRuntime) -> dict[str, int]:
    """A class's FaaS services' ``stats()``, summed over its methods."""
    rows = [svc.stats() for svc in runtime.services.values()]
    return {key: sum(row[key] for row in rows) for key in ("cold_starts", "in_flight", "replicas")}


@dataclass(frozen=True)
class PlatformConfig:
    """Construction-time configuration for an Oparaca platform."""

    nodes: int = 3
    node_cpu_millis: int = 4000
    node_memory_mb: int = 16384
    #: Optional datacenter regions (the paper's §VI multi-DC future
    #: work).  Nodes are distributed round-robin across the regions and
    #: labelled; inter-region traffic pays ``network.inter_region_rtt_s``
    #: and jurisdiction-constrained classes deploy only onto matching
    #: regions.  When ``federation.zones`` declares a hierarchy each
    #: label must name one of its zones; left empty, the labels are the
    #: zone names in declaration order.
    regions: tuple[str, ...] = ()
    seed: int = 0
    db: DbModel = field(default_factory=DbModel)
    #: Store engine behind the shared :class:`DocumentStore`.  The
    #: default dict engine is byte-identical to the historical in-memory
    #: store; ``StorageConfig(backend="sqlite", path=...)`` swaps in a
    #: durable SQLite database with keySpec secondary indexes.
    storage: StorageConfig = field(default_factory=StorageConfig)
    network: NetworkModel = field(default_factory=NetworkModel)
    object_store: ObjectStoreModel = field(default_factory=ObjectStoreModel)
    knative: KnativeModel = field(default_factory=KnativeModel)
    deployment: DeploymentModel = field(default_factory=DeploymentModel)
    catalog: TemplateCatalog | None = None
    optimizer_enabled: bool = False
    tracing_enabled: bool = False
    #: Structured control-plane event log (scheduler placements, scale
    #: decisions, pod lifecycle, ...).  Off by default: like tracing,
    #: recording costs nothing when disabled.
    events_enabled: bool = False
    # -- the optional planes (see docs/architecture.md, "Planes") --------
    # Each is off by default, and a disabled plane is never constructed:
    # it is absent from ``Oparaca.planes`` and every data path runs its
    # original (baseline) code.
    #: Admission control, weighted-fair async scheduling, load shedding.
    qos: QosConfig = field(default_factory=QosConfig)
    #: Snapshots, point-in-time restore, measured crash recovery.
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)
    #: Labeled time-series scraping, OpenMetrics exposition, NFR-derived
    #: SLO burn-rate alerts, kernel profiling.
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    #: Explicit worker-pool control plane (registration, heartbeats,
    #: drain/rebind, exactly-once dispatch ledger); when off, async
    #: dispatch runs the same dispatch core over a static in-process pool.
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: NFR-scored placement, live object migration and geo-routing
    #: over the zone topology its ``zones`` / ``zone_rtt_s`` declare
    #: for the cluster.
    federation: FederationConfig = field(default_factory=FederationConfig)

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise errors.ValidationError(f"nodes must be >= 1, got {self.nodes}")
        if self.optimizer_enabled and not self.metrics.enabled:
            raise errors.ValidationError(
                "optimizer_enabled=True needs metrics.enabled=True: the "
                "optimizer acts on the metrics plane's SLO alerts"
            )


class Oparaca:
    """An in-process Oparaca platform instance."""

    def __init__(self, config: PlatformConfig | None = None) -> None:
        self.config = config or PlatformConfig()
        self.env = Environment()
        self.rng = RngStreams(self.config.seed)
        self.tracer = Tracer(self.env, enabled=self.config.tracing_enabled)
        self.events = EventLog(self.env, enabled=self.config.events_enabled)
        # The one topology: the declared hierarchy or, with no zones, an
        # open one that learns ``regions`` as untiered zones.
        declared = self.config.federation
        topology = ZoneTopology(
            declared.zones, declared.zone_rtt_s, self.config.network.inter_region_rtt_s
        )
        regions = self.config.regions or tuple(zone.name for zone in declared.zones)
        self.cluster = Cluster(self.env, events=self.events, topology=topology)
        for index in range(self.config.nodes):
            self.cluster.add_node(
                f"vm-{index}",
                ResourceSpec(self.config.node_cpu_millis, self.config.node_memory_mb),
                labels={"region": regions[index % len(regions)]} if regions else {},
            )
        self.scheduler = Scheduler(self.cluster, events=self.events)
        self.registry = FunctionRegistry()
        self.network = Network(
            self.env,
            self.config.network,
            region_of=self.cluster.region_of,
            topology=topology,
        )
        self.cluster.memos.append(self.network._pairs)
        self.store = DocumentStore(
            self.env, self.config.db, backend=make_backend(self.config.storage)
        )
        self.object_store = ObjectStore(self.env, self.config.object_store)
        self.monitoring = MonitoringSystem(self.env)
        self.crm = ClassRuntimeManager(
            self.env,
            self.cluster,
            self.scheduler,
            self.registry,
            self.store,
            self.object_store,
            self.network,
            rng=self.rng,
            catalog=self.config.catalog,
            knative_model=self.config.knative,
            deployment_model=self.config.deployment,
            tracer=self.tracer,
            events=self.events,
        )
        self.engine = InvocationEngine(
            self.env,
            self.crm,
            self.object_store,
            self.monitoring,
            tracer=self.tracer,
            rng=self.rng,
            events=self.events,
        )
        # The composition root: each enabled plane is built here, by
        # name, and registered in ``planes`` (wiring order; a disabled
        # plane is absent).  Past this point the platform only loops
        # over the registry; the typed aliases are for callers.
        self.planes: dict[str, Plane] = {}
        self.qos: QosPlane | None = None
        if self.config.qos.enabled:
            self.qos = self.planes["qos"] = QosPlane(
                self.env,
                monitoring=self.monitoring,
                events=self.events,
                tracer=self.tracer,
                config=self.config.qos,
            )
        self.durability: DurabilityPlane | None = None
        if self.config.durability.enabled:
            self.durability = self.planes["durability"] = DurabilityPlane(
                self.env,
                self.crm,
                self.object_store,
                monitoring=self.monitoring,
                events=self.events,
                tracer=self.tracer,
                config=self.config.durability,
            )
        self.scheduler_plane: SchedulerPlane | None = None
        # The sim plane only exists on the sim transport; with
        # transport="asyncio" sim-side async dispatch keeps its static
        # pool and the same protocol is served over real sockets by
        # serve_http().
        if self.config.scheduler.enabled and self.config.scheduler.transport == "sim":
            self.scheduler_plane = self.planes["scheduler"] = SchedulerPlane(
                self.env,
                self.engine,
                self.cluster,
                self.scheduler,
                events=self.events,
                config=self.config.scheduler,
                qos=self.qos,
            )
            self.scheduler_plane.start()
        self.federation: FederationPlane | None = None
        if self.config.federation.enabled:
            self.federation = self.planes["federation"] = FederationPlane(
                self.env,
                self.cluster,
                self.network,
                self.crm,
                events=self.events,
                tracer=self.tracer,
                config=self.config.federation,
            )
            self.crm.rank_placement = self.federation.planner.rank
            self.engine.federation = self.federation
        self.queue = AsyncInvoker(
            self.env,
            self.engine,
            qos=self.qos,
            scheduler=self.scheduler_plane,
        )
        self.gateway = Gateway(
            self.env,
            self.engine,
            tracer=self.tracer,
            qos=self.qos,
            planes=self.planes,
            default_origin_zone=self.config.federation.default_origin_zone,
        )
        self._http_fronts: list[Any] = []
        self.chaos: ChaosInjector | None = None
        self.metrics: MetricsPlane | None = None
        if self.config.metrics.enabled:
            self.metrics = self.planes["metrics"] = MetricsPlane(
                self.env,
                self.monitoring,
                events=self.events,
                config=self.config.metrics,
            )
            self.metrics.install(self)
            self.metrics.start()
        self.optimizer: RequirementOptimizer | None = None
        if self.config.optimizer_enabled:
            self.optimizer = RequirementOptimizer(
                self.env, self.crm, self.metrics, events=self.events
            )
        self.crm.mechanisms = frozenset(self.planes) | (
            {"optimizer"} if self.optimizer else set()
        )
        # Who hears of each class change, in order: the monitoring hub,
        # the planes (a live view, so chaos joins when injected), then
        # every started asyncio front.
        self.crm.listeners = [(self.monitoring,), self.planes.values(), self._http_fronts]

    # -- function images ----------------------------------------------------------

    def register_image(
        self,
        image: str,
        handler: Handler,
        service_time_s: ServiceTime = 0.001,
        output_bytes: int = 256,
        description: str = "",
    ) -> None:
        """Register a Python handler as a container image."""
        self.registry.register(image, handler, service_time_s, output_bytes, description)

    def function(
        self,
        image: str,
        service_time_s: ServiceTime = 0.001,
        output_bytes: int = 256,
        description: str = "",
    ) -> Callable[[Handler], Handler]:
        """Decorator form of :meth:`register_image`."""
        return self.registry.function(image, service_time_s, output_bytes, description)

    # -- deployment ----------------------------------------------------------------

    def deploy(self, package: Package | str | Path) -> list[ClassRuntime]:
        """Deploy a package (object, YAML/JSON text, or file path)."""
        if isinstance(package, Path):
            package = load_package(package)
        elif isinstance(package, str):
            candidate = Path(package)
            if package.lstrip().startswith(("classes:", "name:", "{", "functions:")):
                package = loads_package(package)
            elif candidate.suffix.lower() in (".yml", ".yaml", ".json") and candidate.exists():
                package = load_package(candidate)
            else:
                package = loads_package(package)
        return self.crm.deploy_package(package)

    # -- execution helpers ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.env.now

    def run(self, awaitable: Process | Event | Generator) -> Any:
        """Advance simulated time until ``awaitable`` completes."""
        if inspect.isgenerator(awaitable):
            awaitable = self.env.process(awaitable)
        return self.env.run(until=awaitable)

    def advance(self, seconds: float) -> None:
        """Advance simulated time by ``seconds``."""
        self.env.run(until=self.env.now + seconds)

    def flush(self) -> None:
        """Drain every class runtime's write-behind queue to the DB."""
        drains = [
            runtime.dht.flush_all() for runtime in self.crm.runtimes.values()
        ]
        if drains:
            self.env.run(until=all_of(self.env, drains))

    # -- synchronous object API ----------------------------------------------------------

    def new_object(
        self,
        cls: str,
        state: Mapping[str, Any] | None = None,
        object_id: str | None = None,
    ) -> str:
        """Create an object; returns its platform id."""
        payload: dict[str, Any] = {}
        if state:
            payload["state"] = dict(state)
        if object_id:
            payload["id"] = object_id
        result = self.run(
            self.engine.invoke(InvocationRequest(object_id="", fn_name="new", cls=cls, payload=payload))
        )
        self._raise_if_failed(result)
        return result.object_id

    def invoke(
        self,
        object_id: str,
        fn_name: str,
        payload: Mapping[str, Any] | None = None,
        cls: str | None = None,
        raise_on_error: bool = True,
    ) -> InvocationResult:
        """Invoke a function on an object, synchronously."""
        result = self.run(
            self.engine.invoke(
                InvocationRequest(
                    object_id=object_id,
                    fn_name=fn_name,
                    cls=cls,
                    payload=dict(payload or {}),
                )
            )
        )
        if raise_on_error:
            self._raise_if_failed(result)
        return result

    def invoke_async(
        self,
        object_id: str,
        fn_name: str,
        payload: Mapping[str, Any] | None = None,
        cls: str | None = None,
    ) -> Event:
        """Fire-and-forget invocation; returns the completion event."""
        return self.queue.submit(
            InvocationRequest(
                object_id=object_id, fn_name=fn_name, cls=cls, payload=dict(payload or {})
            )
        )

    def list_objects(self, cls: str) -> list[str]:
        """Ids of every live object of ``cls``."""
        return self.engine.list_objects(cls)

    def get_object(self, object_id: str) -> dict[str, Any]:
        """Read an object's record (id, cls, version, state, files)."""
        result = self.invoke(object_id, "get")
        return dict(result.output)

    def update_object(self, object_id: str, state: Mapping[str, Any]) -> int:
        """Patch structured state; returns the new version."""
        result = self.invoke(object_id, "update", {"state": dict(state)})
        return int(result.output["version"])

    def delete_object(self, object_id: str) -> None:
        self.invoke(object_id, "delete")

    # -- OOP handles ------------------------------------------------------------------

    def create(self, cls: str, object_id: str | None = None, **state: Any):
        """Create an object and return an :class:`ObjectHandle` for it::

            image = platform.create("Image", width=640)
            image.resize(width=128)
        """
        from repro.platform.client import ObjectHandle

        return ObjectHandle(
            self, self.new_object(cls, state=state or None, object_id=object_id)
        )

    def object(self, object_id: str):
        """Wrap an existing object id in an :class:`ObjectHandle`."""
        from repro.platform.client import ObjectHandle

        return ObjectHandle(self, object_id)

    # -- unstructured data ------------------------------------------------------------------

    def upload_file(
        self,
        object_id: str,
        key: str,
        data: bytes,
        content_type: str = "application/octet-stream",
    ) -> str:
        """Upload unstructured data for a FILE state key.

        Follows the §III-D flow: obtain a presigned PUT URL, upload
        through it (never holding the store's secret), then commit the
        key mapping on the object record.  Returns the object-store key.
        """
        result = self.invoke(object_id, "file-url", {"key": key, "method": "PUT"})
        url = result.output["url"]
        object_key = result.output["object_key"]
        self.run(self.object_store.presigned_put_timed(url, data, content_type))
        self.run(self.engine.attach_file(object_id, key, object_key))
        return object_key

    def download_file(self, object_id: str, key: str) -> bytes:
        """Fetch unstructured data through a presigned GET URL."""
        result = self.invoke(object_id, "file-url", {"key": key, "method": "GET"})
        return self.run(self.object_store.presigned_get_timed(result.output["url"])).data

    # -- HTTP front door -----------------------------------------------------------------------

    def http(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> HttpResponse:
        """Issue a REST request against the gateway, synchronously."""
        return self.run(
            self.gateway.handle(
                HttpRequest(method, path, dict(body or {}), dict(headers or {}))
            )
        )

    async def serve_http(self, host: str = "127.0.0.1", port: int = 0):
        """Start the real asyncio HTTP front end (gateway routes →
        asyncio scheduler → worker pool over TCP).  Requires
        ``SchedulerConfig(enabled=True, transport="asyncio")``; returns
        the running :class:`~repro.platform.httpfront.AsyncPlatformServer`.
        """
        from repro.platform.httpfront import AsyncPlatformServer  # lazy: pulls in asyncio

        front = AsyncPlatformServer(self, host=host, port=port)
        await front.start()
        self._http_fronts.append(front)
        return front

    # -- cluster operations (elasticity + failure injection) ---------------------------

    def fail_node(self, name: str) -> dict[str, dict[str, int]]:
        """Crash a worker VM.

        Pods on the node die (deployments replace them at their next
        reconcile/autoscale tick), the node's DHT partitions fail over
        per each class runtime's replication/persistence configuration,
        and any unflushed write-behind buffer on the node is lost.
        Returns per-class failover statistics.
        """
        self.cluster.remove_node(name)
        # Re-plan every class's placement hints before the reconciles
        # below (the planner scores by free capacity), so replacement
        # pods land where placement says, not on whatever is free.
        for runtime in self.crm.runtimes.values():
            self.crm.refresh_placement(runtime)
        stats: dict[str, dict[str, int]] = {}
        for cls, runtime in self.crm.runtimes.items():
            if name in runtime.dht.nodes:
                stats[cls] = runtime.dht.fail_node(name)
                runtime.router.refresh()
            for svc in runtime.services.values():
                svc.deployment.reconcile()
        for plane in self.planes.values():
            plane.node_failed(name, stats)
        return stats

    def add_node(self, name: str, region: str | None = None) -> None:
        """Join a new worker VM; eligible class runtimes rebalance onto
        it.  Under a declared hierarchy ``region`` must name a zone."""
        labels = {"region": region} if region else {}
        self.cluster.add_node(
            name,
            ResourceSpec(self.config.node_cpu_millis, self.config.node_memory_mb),
            labels=labels,
        )
        for runtime in self.crm.runtimes.values():
            # Placement decides eligibility (jurisdiction, and with the
            # federation planner tier pinning), exactly as at deploy time.
            if name in self.crm.refresh_placement(runtime):
                runtime.dht.add_node(name)
                runtime.router.refresh()

    # -- federation (live migration) ---------------------------------------------------

    def migrate_object(
        self, object_id: str, zone: str, cls: str | None = None
    ) -> dict[str, Any]:
        """Live-migrate an object's primary copy into ``zone``.

        Requires ``FederationConfig(enabled=True)``; returns the handoff
        summary (source/target nodes and zones, version, duration).
        """
        if self.federation is None:
            raise errors.ValidationError(
                "migrate_object requires FederationConfig(enabled=True)"
            )
        cls = cls or split_object_id(object_id)[0]
        if cls is None:
            raise errors.ValidationError(
                f"cannot determine the class of object {object_id!r}; pass cls"
            )
        return self.run(self.federation.migrate_object(cls, object_id, zone))

    # -- chaos ------------------------------------------------------------------------

    def inject_chaos(self, plan: FaultPlan) -> ChaosInjector:
        """Start replaying a fault plan against this platform.

        The injector runs as a simulation process alongside the
        workload; its fault windows feed the NFR report's
        ``availability_under_fault`` verdicts.  Returns the (started)
        injector for inspection.
        """
        self.chaos = self.planes["chaos"] = ChaosInjector(self, plan)
        self.chaos.start()
        return self.chaos

    # -- diagnostics -------------------------------------------------------------------------------

    def describe(self) -> list[dict[str, Any]]:
        """Summaries of every deployed class runtime."""
        return self.crm.describe()

    def cost_report(self) -> list[dict[str, Any]]:
        """Per-class accrued spend and projected monthly run rate."""
        return self.crm.costs.report()

    # -- observability ---------------------------------------------------------------------

    def render_trace(self, trace_id: str | None = None) -> str:
        """Human-readable span tree(s) from the tracer's buffer.

        With ``trace_id`` set, renders only that trace; otherwise every
        retained trace.  Requires ``tracing_enabled``.
        """
        return self.tracer.render(trace_id)

    def export_chrome_trace(
        self, trace_id: str | None = None, path: str | Path | None = None
    ) -> str:
        """Retained spans as Chrome ``trace_event`` JSON.

        Load the result in ``chrome://tracing`` or Perfetto.  When
        ``path`` is given the JSON is also written there.
        """
        text = chrome_trace_json(self.tracer, trace_id=trace_id, indent=2)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    def platform_events(self, type: str | None = None) -> list[PlatformEvent]:
        """Recorded control-plane events (optionally one type)."""
        return self.events.events(type)

    def nfr_report(self) -> list[NfrVerdict]:
        """Per-class QoS compliance verdicts from live observations."""
        return nfr_compliance_report(self.crm.runtimes, self.monitoring, self.planes)

    def report(self, plane: str) -> dict[str, Any]:
        """One plane's statistics by registry name — ``"qos"``,
        ``"durability"``, ``"scheduler"``, ``"federation"``,
        ``"metrics"``, ``"chaos"`` — as in its section of
        :meth:`observability_report`.  Empty when that plane is off."""
        return self.planes[plane].stats() if plane in self.planes else {}

    def metrics_exposition(self) -> str:
        """The metrics registry as OpenMetrics/Prometheus text.  Empty
        when the metrics plane is disabled."""
        return self.metrics.exposition() if self.metrics is not None else ""

    def metrics_report(self, indent: int | None = None) -> str:
        """Instruments plus scraped series history as JSON.  ``"{}"``
        when the metrics plane is disabled."""
        return self.metrics.json_report(indent=indent) if self.metrics is not None else "{}"

    def slo_report(self) -> dict[str, Any]:
        """Burn-rate SLO evaluation: objectives, budget consumption, and
        the alert history.  Empty when the plane (or its evaluator) is
        disabled."""
        return self.metrics.slo.report() if self.metrics is not None else {}

    def sections(self) -> dict[str, Any]:
        """Every state section by name, in report order: the data plane
        — front door, engine, store, async queue, the kernel profile
        when one runs, and ``classes``, one table of per-class rows for
        each part of a class runtime — then each plane's ``stats()``.
        The one list :meth:`snapshot`, the metrics plane and
        :meth:`observability_report` walk."""
        sections: dict[str, Any] = {
            "gateway": self.gateway.stats(),
            "engine": self.engine.stats(),
            "store": self.store.stats(),
            "queue": self.queue.stats(),
        }
        if self.env.profile is not None:
            sections["kernel"] = {"dispatches": self.env.profile.stats()}
        runtimes = self.crm.runtimes.items()
        sections["classes"] = {
            "dht": [{"class": cls, **rt.dht.stats()} for cls, rt in runtimes],
            "read_path": [{"class": cls, **rt.dht.read_path_stats} for cls, rt in runtimes],
            "write_behind": [{"class": cls, **rt.dht.write_behind_stats} for cls, rt in runtimes],
            "faas": [{"class": cls, **_summed_services(rt)} for cls, rt in runtimes],
            "invocations": [
                {"class": cls, **self.monitoring.class_stats(cls)} for cls, _ in runtimes
            ],
        }
        for plane in self.planes.values():
            sections[plane.name] = plane.stats()
        return sections

    def observability_report(self) -> dict[str, Any]:
        """The full observability summary: span latency breakdowns,
        event counts, NFR compliance verdicts, then every state section
        (:meth:`sections`) and, with the metrics plane, the SLO report."""
        report = summary_report(tracer=self.tracer, events=self.events)
        report["nfr"] = [verdict.to_dict() for verdict in self.nfr_report()]
        report.update(self.sections())
        if "metrics" in report:
            report["slo"] = self.slo_report()
        return report

    def snapshot(self) -> dict[str, float]:
        """A flat metrics snapshot: every number of every state section
        as ``series{labels}``, plus each histogram's mean and p99."""
        snap = {
            render_series_name(name, label_key(labels)): float(value)
            for section, stats in self.sections().items()
            for name, labels, value in numbers(stats, section)
        }
        snap.update(self.monitoring.registry.summaries())
        return snap

    def shutdown(self) -> None:
        """Stop background loops and flush durable state."""
        for plane in self.planes.values():
            plane.stop()
        self.queue.stop()
        for runtime in self.crm.runtimes.values():
            for svc in runtime.services.values():
                svc.stop()
        self.flush()
        self.store.close()

    @staticmethod
    def _raise_if_failed(result: InvocationResult) -> None:
        if result.ok:
            return
        message = (
            f"{result.cls or '?'}.{result.fn_name} on "
            f"{result.object_id or '<new>'} failed: {result.error}"
        )
        exc_cls = getattr(errors, result.error_type or "", None)
        if exc_cls is FunctionExecutionError or exc_cls is None:
            raise FunctionExecutionError(message, detail=result.error or "")
        if isinstance(exc_cls, type) and issubclass(exc_cls, OaasError):
            raise exc_cls(message)
        raise FunctionExecutionError(message, detail=result.error or "")
