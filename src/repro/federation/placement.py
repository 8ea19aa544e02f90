"""Deterministic NFR-scored placement across the zone hierarchy.

The planner turns a class's non-functional requirements into an
*ordered* list of cluster nodes used three ways: as the membership of
the class's DHT partition ring, as the pod placement hints handed to
the deployment engines, and — because the CRM refreshes hints on every
node join/leave — as the constraint obeyed on scale-up and self-heal,
not just at initial deploy.

Scoring is pure arithmetic over the cluster's topology and inventory
(no RNG): jurisdiction is a hard filter (the cluster's own, shared
with the flat path), the latency NFR picks the preferred tier (declared
latency → pin to the lowest tier with capacity, i.e. the edge; no
latency → consolidate on the core), zone centrality (mean RTT to the
other candidate zones) breaks tier ties, then free CPU and finally the
node name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SchedulingError
from repro.orchestrator.topology import Zone, ZoneTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.nfr import NonFunctionalRequirements
    from repro.orchestrator.cluster import Cluster

__all__ = ["PlacementPlanner"]

PLACEMENT_MODES = ("nfr", "core-only")


class PlacementPlanner:
    """Scores candidate nodes for a class's pods and partitions."""

    def __init__(
        self,
        cluster: "Cluster",
        topology: ZoneTopology,
        mode: str = "nfr",
    ) -> None:
        if mode not in PLACEMENT_MODES:
            raise SchedulingError(
                f"unknown placement mode {mode!r}; expected one of {PLACEMENT_MODES}"
            )
        self.cluster = cluster
        self.topology = topology
        self.mode = mode

    # -- zone lookups --------------------------------------------------------

    def zone_of_node(self, node_name: str) -> Zone | None:
        """The zone a node's ``region`` label names (``None`` if unzoned)."""
        return self.topology.get(self.cluster.region_of(node_name))

    def nodes_in_zone(self, zone_name: str) -> list[str]:
        zone = self.topology.zone(zone_name)
        return [
            name
            for name in self.cluster.node_names
            if self.cluster.region_of(name) == zone.name
        ]

    def allowed_nodes(self, jurisdictions: tuple[str, ...]) -> list[str]:
        """Nodes whose zone satisfies the jurisdiction constraint."""
        return self.cluster.nodes_in_regions(jurisdictions)

    # -- scoring -------------------------------------------------------------

    def plan(self, nfr: "NonFunctionalRequirements") -> list[str]:
        """Ranked node placement for a class with the given NFRs.

        The returned list is both a restriction (state and pods stay on
        these nodes) and a preference order (earlier nodes are hinted
        first).  Empty when no node satisfies the constraint.
        """
        return self.rank(nfr, self.allowed_nodes(nfr.constraint.jurisdictions))

    def rank(
        self, nfr: "NonFunctionalRequirements", candidates: list[str]
    ) -> list[str]:
        """The CRM's ranking hook — what the planner adds to eligibility:
        tier pinning, then the order (tier, zone centrality, free CPU,
        name)."""
        if not candidates:
            return []
        latency_ms = nfr.qos.latency_ms
        ranks = {name: self._tier_rank(name) for name in candidates}
        if self.mode == "core-only":
            pin_rank = max(ranks.values())
        elif latency_ms is not None:
            pin_rank = min(ranks.values())
        else:
            pin_rank = None
        if pin_rank is not None:
            candidates = [name for name in candidates if ranks[name] == pin_rank]
        zone_names = set()
        for name in candidates:
            zone = self.zone_of_node(name)
            if zone is not None:
                zone_names.add(zone.name)
        return sorted(
            candidates,
            key=lambda name: self._score(name, latency_ms, zone_names),
        )

    def rank_in_zone(self, zone_name: str, members: list[str]) -> list[str]:
        """Migration-target order inside one zone: free CPU, then name."""
        zone_members = [
            name for name in self.nodes_in_zone(zone_name) if name in set(members)
        ]
        return sorted(
            zone_members,
            key=lambda name: (-self.cluster.node(name).allocatable.cpu_millis, name),
        )

    def _tier_rank(self, node_name: str) -> int:
        zone = self.zone_of_node(node_name)
        return zone.tier_rank if zone is not None else 1

    def _score(
        self,
        node_name: str,
        latency_ms: float | None,
        candidate_zones: set[str],
    ) -> tuple[float, float, float, str]:
        zone = self.zone_of_node(node_name)
        tier_rank = zone.tier_rank if zone is not None else 1
        # Latency-constrained classes climb down the hierarchy (edge
        # first); unconstrained ones consolidate at the top (core first).
        tier_score = float(tier_rank if latency_ms is not None else -tier_rank)
        centrality = self._centrality(zone, candidate_zones)
        free_cpu = float(self.cluster.node(node_name).allocatable.cpu_millis)
        return (tier_score, centrality, -free_cpu, node_name)

    def _centrality(self, zone: Zone | None, candidate_zones: set[str]) -> float:
        """Mean RTT from ``zone`` to the other candidate zones — the
        lower-latency zone wins when tiers tie."""
        if zone is None:
            return self.topology.default_rtt_s
        others = [name for name in candidate_zones if name != zone.name]
        if not others:
            return 0.0
        total = 0.0
        for other in others:
            total += self.topology.cross_rtt_s(zone.name, other)
        return total / len(others)
