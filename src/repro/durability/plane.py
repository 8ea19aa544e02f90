"""The durability plane facade: policies, coordinators, restore, recovery.

One object owns the whole subsystem so the platform wires a single
dependency, exactly like the QoS plane (PR 4): the CRM calls
:meth:`DurabilityPlane.attach` as classes deploy, the platform calls
:meth:`node_failed` from ``fail_node``, and the snapshot/restore REST
routes (:meth:`admin_route`) call the operator entry points.

The plane is **off by default**: ``PlatformConfig().durability.enabled``
is False and a disabled plane is never constructed, so the Fig. 3
baseline configurations execute byte-identically with or without this
module imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Mapping

from repro.durability.policy import MODE_ON_COMMIT, DurabilityPolicy
from repro.durability.restore import RestoreManager
from repro.durability.snapshot import ClassDurabilityState, SnapshotCoordinator
from repro.errors import UnknownClassError, ValidationError
from repro.http import HttpRequest, HttpResponse
from repro.model.nfr import _checked_number
from repro.monitoring.collector import MonitoringSystem
from repro.monitoring.events import EventLog
from repro.monitoring.metrics import set_counter
from repro.monitoring.nfr_table import Objective
from repro.monitoring.tracing import Tracer
from repro.plane import Plane
from repro.sim.kernel import Environment, Process
from repro.storage.object_store import ObjectStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.crm.manager import ClassRuntimeManager
    from repro.crm.runtime import ClassRuntime

__all__ = ["DurabilityConfig", "DurabilityPlane"]


@dataclass(frozen=True)
class DurabilityConfig:
    """Construction-time knobs of the durability plane.

    Attributes:
        enabled: master switch; when False the platform never builds a
            plane and the storage write path runs its original code.
        bucket: object-store bucket holding snapshot generations,
            manifests, and commit epochs.
        default_interval_s: periodic-cut interval for classes whose
            template does not set ``snapshot_interval_s``.
        default_retention_s: generation retention for classes whose
            template does not set ``retention_s`` (``None`` = keep every
            generation).
    """

    enabled: bool = False
    bucket: str = "oparaca-snapshots"
    default_interval_s: float = 1.0
    default_retention_s: float | None = None

    def __post_init__(self) -> None:
        if not self.bucket:
            raise ValidationError("durability bucket must be non-empty")
        if _checked_number("default_interval_s", self.default_interval_s) <= 0:
            raise ValidationError(
                f"default_interval_s must be > 0, got {self.default_interval_s}"
            )
        if self.default_retention_s is not None:
            if _checked_number("default_retention_s", self.default_retention_s) <= 0:
                raise ValidationError(
                    f"default_retention_s must be > 0, got "
                    f"{self.default_retention_s}"
                )


class DurabilityPlane(Plane):
    """Owns snapshots, restore, and crash recovery for one platform."""

    name = "durability"

    def __init__(
        self,
        env: Environment,
        crm: "ClassRuntimeManager",
        object_store: ObjectStore,
        monitoring: MonitoringSystem | None = None,
        events: EventLog | None = None,
        tracer: Tracer | None = None,
        config: DurabilityConfig | None = None,
    ) -> None:
        self.env = env
        self.crm = crm
        self.object_store = object_store
        self.monitoring = monitoring
        self.events = events
        self.tracer = tracer
        self.config = config or DurabilityConfig(enabled=True)
        object_store.create_bucket(self.config.bucket)
        self.restorer = RestoreManager(env, monitoring, events, tracer)
        self._trackers: dict[str, ClassDurabilityState] = {}
        self._coordinators: dict[str, SnapshotCoordinator] = {}
        self._policies: dict[str, DurabilityPolicy] = {}
        #: Per-class loop identity token: replaced on re-attach/detach so
        #: a superseded periodic loop notices and exits.
        self._loop_tokens: dict[str, object] = {}
        self._recoveries: list[Process] = []
        self._running = True

    # -- class lifecycle (called by the CRM) --------------------------------

    def attach(self, runtime: "ClassRuntime") -> DurabilityPolicy:
        """Derive and enforce the durability policy for a (re)deployed
        class: hook its DHT write path and start the periodic-cut loop.
        Classes whose level is ``none`` get a disabled policy and no
        tracker — their data path is untouched."""
        policy = DurabilityPolicy.from_nfr(
            runtime.resolved.nfr, runtime.template.config, self.config
        )
        runtime.durability = policy
        self._policies[runtime.cls] = policy
        if not policy.enabled:
            self.detach(runtime.cls, runtime=runtime, forget=True)
            self._policies[runtime.cls] = policy
            return policy
        tracker = self._trackers.get(runtime.cls)
        if tracker is None:
            tracker = ClassDurabilityState(
                self.env,
                runtime.cls,
                policy,
                self.object_store,
                self.config.bucket,
                events=self.events,
            )
            self._trackers[runtime.cls] = tracker
        else:
            # Class update: state (and its durability history) carries
            # over with the DHT; only the policy is re-derived.
            tracker.policy = policy
        dht = runtime.dht
        # Strong-persistence commits on a durable store backend (SQLite)
        # are written through alongside the epoch write, so a restarted
        # process finds its objects in the database file itself.
        tracker.write_through = (
            (dht.store, dht.collection)
            if policy.mode == MODE_ON_COMMIT
            and dht.store is not None
            and dht.model.persistent
            and getattr(dht.store, "durable", False)
            else None
        )
        runtime.dht.attach_durability(tracker)
        coordinator = SnapshotCoordinator(self.env, runtime.dht, tracker, self.tracer)
        self._coordinators[runtime.cls] = coordinator
        token = object()
        self._loop_tokens[runtime.cls] = token
        self.env.process(self._periodic(runtime.cls, coordinator, policy, token))
        return policy

    def detach(
        self,
        cls: str,
        runtime: "ClassRuntime | None" = None,
        forget: bool = True,
    ) -> None:
        """Stop enforcing durability for ``cls`` (undeploy, or an update
        that dropped the persistence level)."""
        self._loop_tokens.pop(cls, None)
        self._coordinators.pop(cls, None)
        self._policies.pop(cls, None)
        if forget:
            self._trackers.pop(cls, None)
        if runtime is not None:
            runtime.dht.attach_durability(None)

    def _periodic(
        self,
        cls: str,
        coordinator: SnapshotCoordinator,
        policy: DurabilityPolicy,
        token: object,
    ):
        while self._running and self._loop_tokens.get(cls) is token:
            yield self.env.timeout(policy.interval_s)
            if not self._running or self._loop_tokens.get(cls) is not token:
                return
            yield from coordinator._cut()

    # -- operator entry points ----------------------------------------------

    def snapshot_class(self, cls: str) -> Process:
        """Take a consistent cut of ``cls`` now; resolves to the manifest
        (or ``None`` when nothing changed since the last cut)."""
        return self._coordinator(cls).cut()

    def restore_class(self, cls: str, at: float | None = None) -> Process:
        """Point-in-time restore of a whole class."""
        runtime = self.crm.runtime(cls)
        tracker = self._tracker(cls)
        return self.env.process(self.restorer.restore_class(runtime, tracker, at))

    def restore_object(
        self, cls: str, object_id: str, at: float | None = None
    ) -> Process:
        """Point-in-time restore of one object."""
        runtime = self.crm.runtime(cls)
        tracker = self._tracker(cls)
        return self.env.process(
            self.restorer.restore_object(runtime, tracker, object_id, at)
        )

    def generations(self, cls: str) -> list[dict[str, Any]]:
        """Retained snapshot generations of ``cls`` (oldest first)."""
        return [dict(entry) for entry in self._tracker(cls).generations]

    # -- REST surface --------------------------------------------------------

    def admin_route(self, http: HttpRequest) -> Generator | HttpResponse | None:
        """``POST|GET /api/classes/{cls}/snapshots`` and ``POST
        /api/classes/{cls}/restore``."""
        parts = [p for p in http.path.split("/") if p]
        if len(parts) != 4 or parts[0] != "api" or parts[1] != "classes":
            return None
        cls = parts[2]
        if parts[3] == "snapshots":
            if http.method == "POST":
                return self._snapshot_route(cls)
            if http.method == "GET":
                generations = self.generations(cls)
                return HttpResponse(
                    200,
                    {"class": cls, "generations": generations, "count": len(generations)},
                )
            return None
        if parts[3] == "restore" and http.method == "POST":
            return self._restore_route(cls, http.body)
        return None

    def _snapshot_route(self, cls: str) -> Generator[Any, Any, HttpResponse]:
        manifest = yield self.snapshot_class(cls)
        if manifest is None:
            return HttpResponse(
                200, {"class": cls, "generation": None, "captured": 0}
            )
        return HttpResponse(
            201,
            {
                "class": cls,
                "generation": manifest["generation"],
                "captured": len(manifest["captured"]),
                "cut_time": manifest["cut_time"],
            },
        )

    def _restore_route(
        self, cls: str, body: Mapping[str, Any]
    ) -> Generator[Any, Any, HttpResponse]:
        at = body.get("at")
        if at is not None:
            if isinstance(at, bool) or not isinstance(at, (int, float)):
                raise ValidationError(f"restore 'at' must be a number, got {at!r}")
            at = float(at)
        object_id = body.get("object")
        if object_id is not None:
            summary = yield self.restore_object(cls, str(object_id), at)
        else:
            summary = yield self.restore_class(cls, at)
        return HttpResponse(200, dict(summary))

    # -- platform hooks ------------------------------------------------------

    def node_failed(
        self, node: str, stats: dict[str, dict[str, int]]
    ) -> list[Process]:
        """Launch crash recovery for every enforced class that lost the
        node.  Recovery runs as simulation processes alongside the
        workload; the returned handles let drills wait for completion."""
        crashed_at = self.env.now
        launched: list[Process] = []
        for cls in sorted(stats):
            tracker = self._trackers.get(cls)
            if tracker is None:
                continue
            runtime = self.crm.runtimes.get(cls)
            if runtime is None:
                continue
            process = self.env.process(
                self.restorer.recover(runtime, tracker, node, crashed_at)
            )
            launched.append(process)
        self._recoveries.extend(launched)
        return launched

    def stop(self) -> None:
        """Stop every periodic-cut loop (platform shutdown)."""
        self._running = False
        self._loop_tokens.clear()

    # -- reporting -----------------------------------------------------------

    def policy_for(self, cls: str) -> DurabilityPolicy | None:
        return self._policies.get(cls)

    def tracker_for(self, cls: str) -> ClassDurabilityState | None:
        return self._trackers.get(cls)

    def recoveries(self) -> list[Process]:
        return list(self._recoveries)

    def collect_metrics(self, registry) -> None:
        """Metrics-plane pull hook: per-class snapshot/epoch/recovery
        counters and the last measured RPO/RTO, labeled by class."""
        for cls, tracker in self._trackers.items():
            labels = {"class": cls, "plane": "durability"}
            set_counter(registry, "durability.cuts", float(tracker.cuts_taken), labels)
            set_counter(
                registry, "durability.epoch_writes", float(tracker.epoch_writes), labels
            )
            set_counter(
                registry, "durability.recoveries", float(tracker.recoveries), labels
            )
            set_counter(
                registry, "durability.restores", float(tracker.restores), labels
            )
            set_counter(
                registry,
                "durability.snapshot_bytes",
                float(tracker.snapshot_bytes),
                labels,
            )
            recovery = tracker.last_recovery
            if recovery is not None:
                registry.gauge("durability.last_rpo_s", labels).set(
                    float(recovery["rpo_s"])
                )
                registry.gauge("durability.last_rto_s", labels).set(
                    float(recovery["rto_s"])
                )

    def verdicts(self, cls: str, runtime: Any) -> list[Objective]:
        """The RPO row of a class under an enabled policy: the sim-seconds
        of acknowledged writes its last crash recovery lost, against the
        policy's budget (0 for ``strong``, one cut interval for
        ``standard``); each new recovery over budget is a point alert."""
        policy, tracker = self._policies.get(cls), self._trackers.get(cls)
        if policy is None or not policy.enabled or tracker is None:
            return []
        budget = float(policy.rpo_budget_s)

        def rpo() -> tuple[float, bool, str] | None:
            recovery = tracker.last_recovery
            if recovery is None:
                return None
            observed = float(recovery["rpo_s"])
            return observed, observed <= budget, (
                f"{recovery['lost_writes']} write(s) lost, RTO {recovery['rto_s']:.4f}s "
                f"after node {recovery['node']} crash"
            )

        return [
            Objective(
                cls, "durability_rpo_s", budget, "durability policy", rpo, at_most=True,
                slo="durability_rpo", rule="point", count=lambda: (tracker.recoveries, 0),
                alert_detail=lambda v: (
                    f"measured RPO {v.observed:.4f}s exceeds budget {v.target:.4f}s "
                    f"({tracker.last_recovery['lost_writes']} write(s) lost)"
                ),
            )
        ]

    def snapshot(self) -> dict[str, float]:
        stats = self.stats()
        return {
            "durability.cuts": float(stats["cuts_total"]),
            "durability.epoch_writes": float(stats["epoch_writes_total"]),
            "durability.recoveries": float(stats["recoveries_total"]),
            "durability.restores": float(stats["restores_total"]),
        }

    def stats(self) -> dict[str, Any]:
        """Plane-wide statistics for the observability report."""
        classes: dict[str, Any] = {}
        for cls in sorted(self._policies):
            tracker = self._trackers.get(cls)
            if tracker is not None:
                classes[cls] = tracker.describe()
            else:
                classes[cls] = {"policy": self._policies[cls].describe()}
        return {
            "bucket": self.config.bucket,
            "classes": classes,
            "cuts_total": sum(t.cuts_taken for t in self._trackers.values()),
            "epoch_writes_total": sum(
                t.epoch_writes for t in self._trackers.values()
            ),
            "recoveries_total": sum(
                t.recoveries for t in self._trackers.values()
            ),
            "restores_total": sum(t.restores for t in self._trackers.values()),
        }

    # -- helpers -------------------------------------------------------------

    def _tracker(self, cls: str) -> ClassDurabilityState:
        tracker = self._trackers.get(cls)
        if tracker is None:
            self.crm.runtime(cls)  # raises UnknownClassError when undeployed
            raise ValidationError(
                f"durability is not enforced for class {cls!r} "
                f"(persistence level 'none' or plane attached after deploy)"
            )
        return tracker

    def _coordinator(self, cls: str) -> SnapshotCoordinator:
        coordinator = self._coordinators.get(cls)
        if coordinator is None:
            self._tracker(cls)  # raises with the right error type
            raise UnknownClassError(f"class {cls!r} has no snapshot coordinator")
        return coordinator
