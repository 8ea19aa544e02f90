"""The durability plane facade: policies, coordinators, restore, recovery.

One object owns the whole subsystem so the platform wires a single
dependency, exactly like the QoS plane: the CRM's lifecycle hook
(:meth:`DurabilityPlane.class_changed`) attaches a class as it deploys
or updates and detaches it as it leaves, the platform calls
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
from repro.monitoring.nfr_table import Objective
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
        config: DurabilityConfig | None = None,
    ) -> None:
        self.env = env
        self.crm = crm
        self.object_store = object_store
        self.monitoring = monitoring
        self.events = events
        self.config = config or DurabilityConfig(enabled=True)
        object_store.create_bucket(self.config.bucket)
        self.restorer = RestoreManager(env, monitoring, events)
        self._trackers: dict[str, ClassDurabilityState] = {}
        self._coordinators: dict[str, SnapshotCoordinator] = {}
        self._policies: dict[str, DurabilityPolicy] = {}
        self._recoveries: list[Process] = []
        self._running = True

    # -- class lifecycle (called by the CRM) --------------------------------

    def class_changed(self, cls: str, runtime: "ClassRuntime | None") -> None:
        """Enforce a (re)deployed class's durability policy: hook its DHT
        write path and start its periodic cuts.  A class that left, or
        whose level is ``none`` (its data path untouched), is let go."""
        old = self._coordinators.pop(cls, None)  # its periodic loop exits
        if old is not None:
            old.dht.attach_durability(None)
        if runtime is None:
            self._policies.pop(cls, None)
            self._trackers.pop(cls, None)
            return
        policy = DurabilityPolicy.from_nfr(
            runtime.resolved.nfr, runtime.template.config, self.config
        )
        runtime.durability = self._policies[cls] = policy
        if not policy.enabled:
            self._trackers.pop(cls, None)
            return
        tracker = self._trackers.get(cls)
        if tracker is None:
            tracker = self._trackers[cls] = ClassDurabilityState(
                self.env, cls, policy, self.object_store, self.config.bucket, events=self.events
            )
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
        dht.attach_durability(tracker)
        coordinator = self._coordinators[cls] = SnapshotCoordinator(self.env, dht, tracker)
        self.env.process(self._periodic(cls, coordinator, policy.interval_s))

    def _periodic(self, cls: str, coordinator: SnapshotCoordinator, interval_s: float):
        # A superseded loop (its class updated or gone) finds another
        # coordinator, or none, and exits.
        while self._running and self._coordinators.get(cls) is coordinator:
            yield self.env.timeout(interval_s)
            if not self._running or self._coordinators.get(cls) is not coordinator:
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
        self._recoveries = [*self.recoveries(), *launched]
        return launched

    def stop(self) -> None:
        """Stop every periodic-cut loop (platform shutdown)."""
        self._running = False

    # -- reporting -----------------------------------------------------------

    def policy_for(self, cls: str) -> DurabilityPolicy | None:
        return self._policies.get(cls)

    def tracker_for(self, cls: str) -> ClassDurabilityState | None:
        return self._trackers.get(cls)

    def recoveries(self) -> list[Process]:
        """The crash recoveries still running; a finished one is let go."""
        self._recoveries = [process for process in self._recoveries if process.is_alive]
        return list(self._recoveries)

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
