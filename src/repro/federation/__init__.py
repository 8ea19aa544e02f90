"""Edge–cloud federation plane (paper §VI, ROADMAP item 3).

Over the cluster's zone topology (edge sites → regional DCs → core;
:mod:`repro.orchestrator.topology`, re-exported here), scores pod and
partition placement against declared latency/jurisdiction NFRs,
migrates live objects between zones with a version-guarded handoff, and
geo-routes invocations that carry an origin zone.  Everything is off by
default behind :class:`FederationConfig` — a disabled platform is
byte-identical to one built before this package existed.
"""

from repro.federation.placement import PlacementPlanner
from repro.federation.plane import FederationConfig, FederationPlane
from repro.orchestrator.topology import TIERS, Zone, ZoneTopology

__all__ = [
    "FederationConfig",
    "FederationPlane",
    "PlacementPlanner",
    "TIERS",
    "Zone",
    "ZoneTopology",
]
