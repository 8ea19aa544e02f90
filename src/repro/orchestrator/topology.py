"""The cluster's zone topology: edge sites → regional DCs → core.

A :class:`Zone` is one latency/failure domain.  Cluster nodes join a
zone through their ``region`` label (the zone *name*); each zone also
carries a ``region`` attribute — the *jurisdiction* label that NFR
``constraint.jurisdictions`` entries match, so several zones
(``eu-edge``, ``eu-core``) can share one legal region (``eu``).

:class:`ZoneTopology` adds a symmetric per-zone-pair RTT matrix over one
default RTT (the network model's flat ``inter_region_rtt_s``).  Each
cluster owns one.  Declared with zones it is **closed**: a node label
must name one of them.  Declared with none it is **open** — the flat
``regions=`` deployment, the one-tier case — and learns an untiered zone
per label its nodes carry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError

__all__ = ["TIERS", "Zone", "ZoneTopology"]

TIERS = ("edge", "regional", "core")
_TIER_RANK = {tier: rank for rank, tier in enumerate(TIERS)}


@dataclass(frozen=True)
class Zone:
    """One zone of the federation hierarchy.

    ``name`` is what node ``region`` labels carry; ``region`` is the
    jurisdiction label (defaults to the zone name); ``parent`` points at
    the next tier up (edge → regional → core).
    """

    name: str
    tier: str = "regional"
    region: str | None = None
    parent: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("zone name must be non-empty")
        if self.tier not in TIERS:
            raise ValidationError(
                f"zone {self.name!r}: unknown tier {self.tier!r} "
                f"(expected one of {list(TIERS)})"
            )
        if self.region is None:
            object.__setattr__(self, "region", self.name)

    @property
    def tier_rank(self) -> int:
        """0 for edge, 1 for regional, 2 for core."""
        return _TIER_RANK[self.tier]


class ZoneTopology:
    """Validated zone set plus the symmetric zone-pair RTT matrix."""

    def __init__(
        self,
        zones: tuple[Zone, ...] | list[Zone] = (),
        rtt_s: tuple[tuple[str, str, float], ...] | list[tuple[str, str, float]] = (),
        default_rtt_s: float = 0.04,
    ) -> None:
        #: Cross-zone RTT of every pair the matrix leaves out.
        self.default_rtt_s = default_rtt_s
        #: No zone declared: labels are learned from the nodes that join.
        self.open = not zones
        self._zones: dict[str, Zone] = {}
        for zone in zones:
            if not isinstance(zone, Zone):
                raise ValidationError(f"expected a Zone, got {zone!r}")
            if zone.name in self._zones:
                raise ValidationError(f"duplicate zone {zone.name!r}")
            self._zones[zone.name] = zone
        for zone in self._zones.values():
            if zone.parent is None:
                continue
            parent = self._zones.get(zone.parent)
            if parent is None:
                raise ValidationError(
                    f"zone {zone.name!r}: unknown parent {zone.parent!r}"
                )
            if parent.tier_rank <= zone.tier_rank:
                raise ValidationError(
                    f"zone {zone.name!r} ({zone.tier}) must have a parent of a "
                    f"higher tier, not {parent.name!r} ({parent.tier})"
                )
        self._rtt: dict[tuple[str, str], float] = {}
        for entry in rtt_s:
            if len(entry) != 3:
                raise ValidationError(
                    f"zone RTT entry must be (zone_a, zone_b, seconds): {entry!r}"
                )
            a, b, seconds = entry
            for name in (a, b):
                if name not in self._zones:
                    raise ValidationError(f"zone RTT entry names unknown zone {name!r}")
            if a == b:
                raise ValidationError(f"zone RTT entry pairs {a!r} with itself")
            if not isinstance(seconds, (int, float)) or isinstance(seconds, bool):
                raise ValidationError(f"zone RTT for ({a!r}, {b!r}) must be a number")
            if seconds <= 0:
                raise ValidationError(f"zone RTT for ({a!r}, {b!r}) must be > 0")
            self._rtt[self._pair(a, b)] = float(seconds)

    @staticmethod
    def _pair(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    @property
    def zones(self) -> tuple[Zone, ...]:
        return tuple(self._zones[name] for name in sorted(self._zones))

    @property
    def zone_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._zones))

    def get(self, name: str | None) -> Zone | None:
        return self._zones.get(name) if name is not None else None

    def zone(self, name: str) -> Zone:
        zone = self._zones.get(name)
        if zone is None:
            raise ValidationError(
                f"unknown zone {name!r}; known zones: {list(self.zone_names)}"
            )
        return zone

    def admit(self, label: str | None) -> None:
        """A node labelled ``label`` joins: an open topology learns the
        label as an untiered zone, a closed one refuses an unknown one."""
        if label is None or label in self._zones:
            return
        if not self.open:
            raise ValidationError(
                f"cluster region label {label!r} names no declared zone "
                f"(known zones: {list(self.zone_names)})"
            )
        self._zones[label] = Zone(label)

    def rtt_s(self, a: str | None, b: str | None) -> float | None:
        """Matrix RTT between two zones, ``None`` when the pair is not
        declared.  Same-zone pairs are intra-DC: 0.0 extra."""
        if a is None or b is None:
            return None
        if a == b:
            return 0.0
        return self._rtt.get(self._pair(a, b))

    def cross_rtt_s(self, a: str, b: str) -> float:
        """What crossing between two distinct zones costs: the matrix
        RTT when the pair is declared, else the default."""
        return self._rtt.get(self._pair(a, b), self.default_rtt_s)

    def matches_jurisdiction(
        self, zone_name: str | None, jurisdictions: tuple[str, ...]
    ) -> bool:
        """True when the zone's name *or* its jurisdiction region label
        is in ``jurisdictions`` (empty constraint matches everything)."""
        if not jurisdictions:
            return True
        zone = self.get(zone_name)
        if zone is None:
            return False
        wanted = set(jurisdictions)
        return zone.name in wanted or zone.region in wanted

    def jurisdiction_labels(self) -> set[str]:
        """Every label a ``jurisdictions`` constraint may legally name."""
        labels: set[str] = set()
        for zone in self._zones.values():
            labels.add(zone.name)
            labels.add(zone.region)  # type: ignore[arg-type]
        return labels

    def describe(self) -> list[dict[str, str | None]]:
        return [
            {
                "name": zone.name,
                "tier": zone.tier,
                "region": zone.region,
                "parent": zone.parent,
            }
            for zone in self.zones
        ]
