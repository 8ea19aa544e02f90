"""Live object migration between zones.

The handoff protocol (documented in ``docs/federation.md``):

1. **Quiesce** — take the class's own write hold so new commits park;
   commits already past it are handled by step 2.
2. **Fence** — bump the key's migration epoch.  A commit that captured
   the previous epoch fails its install with
   :class:`~repro.errors.ConcurrentModificationError`; the invoker's CAS
   loop reloads (now routed to the new owner) and retries, so in-flight
   invocations on the old owner can neither be lost nor resurrect stale
   state.
3. **Select the best source** — drain the write-behind queues, then take
   the newest copy among every node's resident memory and the flushed
   document-store copy (the durability plane's best-durable-source
   rule).
4. **Hand off** — pay the zone-pair WAN transfer for the state, then
   atomically pin the key to the target node, install the copy
   version-guarded, and purge stale copies outside the new owner set.
5. **Release** — release the hold; parked commits resume against the
   new owner (once a concurrent snapshot cut has released its hold too)
   under the same optimistic version check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.durability.restore import _doc_version
from repro.errors import MigrationError, UnknownObjectError
from repro.federation.placement import PlacementPlanner
from repro.monitoring.events import EventLog
from repro.sim.kernel import Environment, Process
from repro.sim.network import Network
from repro.storage.dht import doc_size_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.crm.runtime import ClassRuntime

__all__ = ["MigrationManager"]


class MigrationManager:
    """Executes zone-to-zone object handoffs for the federation plane."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        planner: PlacementPlanner,
        events: EventLog | None = None,
    ) -> None:
        self.env = env
        self.network = network
        self.planner = planner
        self.events = events
        self.migrations = 0
        self.migrations_failed = 0

    def migrate(
        self, runtime: "ClassRuntime", key: str, target_zone: str
    ) -> Process:
        """Move one object's primary copy into ``target_zone``.

        Resolves to a summary dict; raises :class:`MigrationError` when
        the target zone holds no eligible member node and
        :class:`UnknownObjectError` when no copy of the object exists.
        """
        return self.env.process(self._migrate(runtime, key, target_zone))

    def _migrate(
        self, runtime: "ClassRuntime", key: str, target_zone: str
    ) -> Generator:
        zone = self.planner.topology.zone(target_zone)
        dht = runtime.dht
        targets = self.planner.rank_in_zone(zone.name, list(dht.nodes))
        if targets:
            target = targets[0]
        else:
            # The class's partition ring (possibly tier-pinned by the
            # planner) has no member in the target zone: extend it with
            # the zone's best cluster node — an operator-initiated
            # spill, still subject to the caller's jurisdiction gate.
            candidates = self.planner.rank_in_zone(
                zone.name, self.planner.cluster.node_names
            )
            if not candidates:
                raise MigrationError(
                    f"class {runtime.cls!r} has no partition node in zone "
                    f"{zone.name!r} and the zone holds no cluster node to "
                    f"extend the ring with (members: {list(dht.nodes)})"
                )
            target = candidates[0]
            dht.add_node(target)
            runtime.router.refresh()
        source = dht.owner(key)
        source_zone = self.planner.zone_of_node(source)
        started = self.env.now
        # New commits park until the handoff lands.  In-flight commits
        # past the hold are fenced by the epoch bump below.
        dht.hold_writes()
        dht.prepare_migration(key)
        try:
            best = yield from self._best_copy(dht, key)
            if best is None:
                raise UnknownObjectError(f"no object {key!r}")
            if source != target:
                yield self.network.transfer(source, target, doc_size_bytes(best))
            dht.complete_migration(key, target, best)
            runtime.router.refresh()
        except BaseException as exc:
            self.migrations_failed += 1
            if self.events is not None:
                self.events.record(
                    "federation.migrate_failed",
                    cls=runtime.cls,
                    object=key,
                    source=source,
                    target=target,
                    error=type(exc).__name__,
                    duration_s=self.env.now - started,
                )
            raise
        finally:
            dht.release_writes()
        self.migrations += 1
        summary: dict[str, Any] = {
            "class": runtime.cls,
            "object": key,
            "source": source,
            "source_zone": source_zone.name if source_zone is not None else None,
            "target": target,
            "target_zone": zone.name,
            "version": int(best.get("version", 0)),
            "epoch": dht.pin_epoch(key),
            "duration_s": self.env.now - started,
        }
        if self.events is not None:
            self.events.record("federation.migrate", **summary)
        return summary

    def _best_copy(self, dht, key: str) -> Generator:
        """Newest copy across live memory and the flushed store — the
        durability plane's best-durable-source selection, applied to a
        healthy class."""
        yield dht.flush_all()
        best = dht.best_resident(key)
        if dht.store is not None and dht.model.persistent:
            stored = yield dht.store.load(dht.collection, key)
            if _doc_version(stored) > _doc_version(best):
                best = stored
        return best
