"""The federation plane facade: config gate, geo-routing, migration.

Mirrors the QoS/durability/scheduler plane pattern: a frozen
:class:`FederationConfig` with ``enabled=False`` rides on
``PlatformConfig``, and when disabled **no plane object is built** — no
planner ranking in the CRM, no hook on the invoker — so a baseline run
is byte-identical to one built before this package existed.  The zone
topology is the cluster's; the plane ranks, migrates and routes over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Mapping

from repro.errors import JurisdictionError, MigrationError, ValidationError
from repro.federation.migration import MigrationManager
from repro.federation.placement import PLACEMENT_MODES, PlacementPlanner
from repro.orchestrator.topology import Zone, ZoneTopology
from repro.http import HttpRequest, HttpResponse
from repro.monitoring.events import EventLog
from repro.monitoring.nfr_table import Objective
from repro.plane import Plane
from repro.sim.kernel import Environment, Process
from repro.sim.network import Network
from repro.storage.dht import Dht

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.crm.manager import ClassRuntimeManager
    from repro.orchestrator.cluster import Cluster

__all__ = ["FederationConfig", "FederationPlane"]


@dataclass(frozen=True)
class FederationConfig:
    """Switchboard for the edge–cloud federation plane.

    Attributes:
        enabled: build the plane.  ``False`` (the default) constructs
            nothing and leaves every data path untouched.
        zones: the hierarchy, declared as the cluster's topology — each
            node ``region`` label must name one of these zones; with
            ``PlatformConfig.regions`` empty, nodes are labelled
            round-robin over the zone names in declaration order.
        zone_rtt_s: symmetric ``(zone_a, zone_b, seconds)`` matrix
            entries; pairs left out fall back to the network model's
            flat ``inter_region_rtt_s``.
        default_origin_zone: origin assumed for gateway requests that
            carry no ``origin_zone``; ``None`` leaves them zone-neutral
            (no geo-routing, no jurisdiction check).
        placement: ``"nfr"`` scores placement against each class's
            latency NFR (latency-constrained classes pin to the edge);
            ``"core-only"`` consolidates everything on the highest tier
            — the ABL-FEDERATION control arm.
    """

    enabled: bool = False
    zones: tuple[Zone, ...] = ()
    zone_rtt_s: tuple[tuple[str, str, float], ...] = ()
    default_origin_zone: str | None = None
    placement: str = "nfr"

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENT_MODES:
            raise ValidationError(
                f"placement must be one of {PLACEMENT_MODES}, got {self.placement!r}"
            )
        if self.enabled and not self.zones:
            raise ValidationError(
                "federation requires at least one zone when enabled"
            )
        # Zone/tier/parent/matrix shape: validated by the topology built of it.
        names = sorted(zone.name for zone in self.zones)
        if self.default_origin_zone is not None and self.default_origin_zone not in names:
            raise ValidationError(
                f"default_origin_zone {self.default_origin_zone!r} is not a "
                f"declared zone (zones: {names})"
            )


@dataclass
class _ClassFederationStats:
    accesses: int = 0
    cross_zone: int = 0
    rejections: int = 0


class FederationPlane(Plane):
    """Planner + migration + geo-routing over the cluster's topology,
    built only when ``FederationConfig(enabled=True)``."""

    name = "federation"

    def __init__(
        self,
        env: Environment,
        cluster: "Cluster",
        network: Network,
        crm: "ClassRuntimeManager",
        events: EventLog | None = None,
        config: FederationConfig | None = None,
    ) -> None:
        self.env = env
        self.network = network
        self.crm = crm
        self.events = events
        self.config = config or FederationConfig(enabled=True)
        if cluster.topology.open:
            # Built over a bare cluster, not by the platform: the config's
            # hierarchy becomes that cluster's topology here.
            cluster.topology = ZoneTopology(self.config.zones, self.config.zone_rtt_s)
            for region in cluster.regions:
                cluster.topology.admit(region)
        self.topology = cluster.topology
        self.planner = PlacementPlanner(
            cluster, self.topology, mode=self.config.placement
        )
        self.migration = MigrationManager(env, network, self.planner, events=events)
        self._stats: dict[str, _ClassFederationStats] = {}
        #: (owner tuple, origin zone) -> (nearest replica, its zone, the
        #: client-leg RTT).  The owner tuple already carries ring
        #: membership and migration pins, so an entry goes stale only
        #: when a node *name* changes zone (it fails, then rejoins
        #: elsewhere): the cluster clears its ``memos`` then.
        self._routes: dict[
            tuple[tuple[str, ...], str], tuple[str, str | None, float]
        ] = {}
        cluster.memos.append(self._routes)

    # -- latency model -------------------------------------------------------

    def zone_rtt_s(self, origin_zone: str, zone_name: str | None) -> float:
        """Client-leg RTT from an origin zone to a serving zone."""
        if zone_name is None or origin_zone == zone_name:
            return self.network.model.rtt_s
        return self.topology.cross_rtt_s(origin_zone, zone_name)

    # -- geo-routing (invoker hooks) -----------------------------------------

    def route(self, dht: Dht, object_id: str, origin_zone: str) -> str:
        """The eligible replica nearest to the origin zone.

        Deterministic: replicas are compared by client-leg RTT, ties
        resolved by the baseline owner order.  Decided once per (owner
        tuple, origin zone); a request looks the answer up.
        """
        return self._routed(dht.owners(object_id), origin_zone)[0]

    def _routed(
        self, owners: tuple[str, ...], origin_zone: str
    ) -> tuple[str, str | None, float]:
        routed = self._routes.get((owners, origin_zone))
        if routed is None:
            zones = [self.planner.zone_of_node(node) for node in owners]
            names = [zone.name if zone else None for zone in zones]
            legs = [self.zone_rtt_s(origin_zone, name) for name in names]
            index = min(range(len(owners)), key=lambda i: (legs[i], i))
            routed = self._routes[(owners, origin_zone)] = (
                owners[index], names[index], legs[index]
            )
        return routed

    def admit(
        self,
        origin_zone: str,
        cls: str,
        jurisdictions: tuple[str, ...],
        dht: Dht,
        object_id: str,
    ) -> float:
        """Gate one invocation: enforce the jurisdiction constraint and
        return the client-leg RTT to the serving replica.

        Raises :class:`~repro.errors.ValidationError` for an unknown
        origin zone and :class:`~repro.errors.JurisdictionError` for a
        cross-jurisdiction access (counted into the class's
        ``jurisdiction`` NFR verdict).
        """
        zone = self.topology.zone(origin_zone)
        stats = self._stats.get(cls)
        if stats is None:
            stats = self._stats[cls] = _ClassFederationStats()
        stats.accesses += 1
        if jurisdictions and not self.topology.matches_jurisdiction(
            zone.name, jurisdictions
        ):
            stats.rejections += 1
            if self.events is not None:
                self.events.record(
                    "federation.reject",
                    cls=cls,
                    object=object_id,
                    origin=zone.name,
                    jurisdictions=list(jurisdictions),
                )
            raise JurisdictionError(
                f"origin zone {zone.name!r} is outside class {cls!r}'s "
                f"jurisdictions {list(jurisdictions)}"
            )
        _target, target_zone, leg = self._routed(dht.owners(object_id), zone.name)
        if target_zone != zone.name:
            stats.cross_zone += 1
        return leg

    # -- migration (operator surface) ----------------------------------------

    def migrate_object(self, cls: str, object_id: str, target_zone: str) -> Process:
        """Live-migrate one object's primary copy into ``target_zone``."""
        runtime = self.crm.runtime(cls)
        zone = self.topology.zone(target_zone)
        jurisdictions = runtime.resolved.nfr.constraint.jurisdictions
        if jurisdictions and not self.topology.matches_jurisdiction(
            zone.name, jurisdictions
        ):
            stats = self._stats.setdefault(cls, _ClassFederationStats())
            stats.rejections += 1
            raise MigrationError(
                f"zone {zone.name!r} is outside class {cls!r}'s "
                f"jurisdictions {list(jurisdictions)}"
            )
        return self.migration.migrate(runtime, object_id, target_zone)

    def admin_route(self, http: HttpRequest) -> Generator | HttpResponse | None:
        """``POST /api/classes/{cls}/objects/{oid}/migrate``."""
        parts = [p for p in http.path.split("/") if p]
        if (
            len(parts) != 6
            or parts[0] != "api"
            or parts[1] != "classes"
            or parts[3] != "objects"
            or parts[5] != "migrate"
            or http.method != "POST"
        ):
            return None
        return self._migrate_route(parts[2], parts[4], http.body)

    def _migrate_route(
        self, cls: str, object_id: str, body: Mapping[str, Any]
    ) -> Generator[Any, Any, HttpResponse]:
        zone = body.get("zone")
        if not zone or not isinstance(zone, str):
            raise ValidationError(
                "migrate requires a target 'zone' (string) in the body"
            )
        summary = yield self.migrate_object(cls, object_id, zone)
        return HttpResponse(200, dict(summary))

    # -- reporting -----------------------------------------------------------

    def jurisdiction_rejections(self, cls: str) -> int:
        stats = self._stats.get(cls)
        return stats.rejections if stats is not None else 0

    def class_stats(self, cls: str) -> dict[str, int]:
        stats = self._stats.get(cls, _ClassFederationStats())
        return {
            "accesses": stats.accesses,
            "cross_zone": stats.cross_zone,
            "rejections": stats.rejections,
        }

    def verdicts(self, cls: str, runtime: Any) -> list[Objective]:
        """The jurisdiction row of a constrained class: the target is
        zero rejected cross-jurisdiction accesses; every rejection this
        plane counted is one violation."""
        jurisdictions = runtime.resolved.nfr.constraint.jurisdictions
        if not jurisdictions:
            return []

        def rejections() -> tuple[float, bool, str]:
            stats = self.class_stats(cls)
            return float(stats["rejections"]), stats["rejections"] == 0, (
                f"constrained to {sorted(jurisdictions)}; "
                f"{stats['accesses']} access(es), {stats['rejections']} rejected"
            )

        row = Objective(cls, "jurisdiction", 0.0, "federation placement", rejections, at_most=True)
        return [row]

    def stats(self) -> dict[str, Any]:
        return {
            "zones": self.topology.describe(),
            "placement": self.config.placement,
            "migrations_total": self.migration.migrations,
            "migrations_failed": self.migration.migrations_failed,
            "accesses_total": sum(s.accesses for s in self._stats.values()),
            "cross_zone_total": sum(s.cross_zone for s in self._stats.values()),
            "rejections_total": sum(s.rejections for s in self._stats.values()),
            "classes": {cls: self.class_stats(cls) for cls in sorted(self._stats)},
        }
