"""Distributed in-memory hash table (the paper's structured-state tier).

Object records are partitioned over the worker nodes with consistent
hashing and held in memory on their owner (plus replicas).  Reads hit
the owner's memory; on a miss the record is loaded from the document
store and cached.  Writes update the owner (and replicas) in memory and
— when the class is persistent — enqueue to a per-node write-behind
queue that batches them into the document store (§V: "distributed
in-memory hash table to consolidate data for batch write operations").

The caller passes its node name so network locality is modelled: a
caller co-located with the partition owner pays only loopback latency,
which is what the locality-aware router (ABL-LOCALITY) exploits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Generator

from repro.errors import (
    ConcurrentModificationError,
    NetworkPartitionError,
    StorageError,
)
from repro.monitoring.tracing import Tracer
from repro.sim.kernel import Environment, Process, all_of
from repro.sim.network import Network
from repro.sim.resources import Gate
from repro.storage.document import copy_doc
from repro.storage.hashring import HashRing
from repro.storage.kv import DocumentStore
from repro.storage.read_path import ReadBatchConfig, ReadBatcher
from repro.storage.write_behind import WriteBehindConfig, WriteBehindQueue

__all__ = ["DhtModel", "Dht"]


@dataclass(frozen=True)
class DhtModel:
    """Performance/replication parameters of the in-memory tier.

    Attributes:
        op_cost_s: CPU time on the owner node per get/put.
        replication: total copies of each record (1 = no replicas).
        persistent: write-behind updates to the document store.  With
            ``False`` the tier is memory-only — Fig. 3's
            ``oprc-bypass-nonpersist`` configuration.
        write_behind: batching configuration when persistent.
        read_coalescing: single-flight store reads — concurrent misses
            on the same key collapse into ONE in-flight document-store
            read; waiters park on a per-key gate and share the result.
            Kills the thundering-herd read storm after a node failure,
            rebalance, or cold-start chaos event.
        read_batch: when set, miss reads go through a
            :class:`~repro.storage.read_path.ReadBatcher` that lingers
            briefly and issues one multi-get (``op_cost + k *
            read_cost``) per window instead of ``k`` point reads.
        near_cache_entries: when > 0, each node keeps a bounded LRU
            *near cache* of records it fetched as a non-owner caller.
            Invalidated on every put/delete and dropped wholesale on
            membership change; a near-cache hit can still serve a copy
            at most one commit stale, which the invoker's optimistic
            CAS commit detects (retries reload with ``fresh=True``).
            ``0`` disables the cache.
    """

    op_cost_s: float = 0.00002
    replication: int = 1
    persistent: bool = True
    write_behind: WriteBehindConfig = WriteBehindConfig()
    #: Per-node resident-entry cap; ``None`` = unbounded.  Over the cap,
    #: the least-recently-used entry is evicted.  For persistent caches
    #: eviction is safe (misses reload from the document store); for
    #: ephemeral caches an evicted entry is gone, like any cache.
    max_entries_per_node: int | None = None
    read_coalescing: bool = False
    read_batch: ReadBatchConfig | None = None
    near_cache_entries: int = 0

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise StorageError(f"replication must be >= 1, got {self.replication}")
        if self.op_cost_s < 0:
            raise StorageError(f"op_cost_s must be >= 0, got {self.op_cost_s}")
        if self.max_entries_per_node is not None and self.max_entries_per_node < 1:
            raise StorageError(
                f"max_entries_per_node must be >= 1, got {self.max_entries_per_node}"
            )
        if self.near_cache_entries < 0:
            raise StorageError(
                f"near_cache_entries must be >= 0, got {self.near_cache_entries}"
            )


#: ``json.dumps`` with these arguments builds this encoder on every put.
_ENCODE_JSON = json.JSONEncoder(separators=(",", ":"), default=str).encode


def doc_size_bytes(doc: dict[str, Any]) -> int:
    """Approximate wire size of a record (JSON encoding)."""
    try:
        return len(_ENCODE_JSON(doc))
    except (TypeError, ValueError):
        return 512


class Dht:
    """The distributed hash table spanning the cluster's worker nodes."""

    def __init__(
        self,
        env: Environment,
        nodes: list[str],
        network: Network,
        store: DocumentStore | None = None,
        model: DhtModel | None = None,
        collection: str = "objects",
        tracer: Tracer | None = None,
    ) -> None:
        if not nodes:
            raise StorageError("DHT requires at least one node")
        self.env = env
        self.network = network
        self.store = store
        self.model = model or DhtModel()
        self.collection = collection
        self.tracer = tracer
        if self.model.persistent and store is None:
            raise StorageError("persistent DHT requires a document store")
        self.ring = HashRing(list(nodes))
        self._mem: dict[str, dict[str, dict[str, Any]]] = {n: {} for n in nodes}
        #: Per-node near cache: records fetched by this node as a
        #: *non-owner* caller.  Empty (and never consulted) unless
        #: ``model.near_cache_entries > 0``.
        self._near: dict[str, dict[str, dict[str, Any]]] = {n: {} for n in nodes}
        #: key -> gate of the single in-flight store read for that key
        #: (read_coalescing); later misses wait here instead of issuing
        #: their own read.
        self._inflight_reads: dict[str, Gate] = {}
        #: key -> (resident version, its wire size): a version is
        #: serialised for sizing once, not on every get.  Matched by
        #: identity, so a stale entry can only miss; dropped with the key.
        self._sizes: dict[str, tuple[dict[str, Any], int]] = {}
        self._queues: dict[str, WriteBehindQueue] = {}
        for node in nodes:
            self._add_queue(node)
        #: Durability tracker attached by the durability plane (``None``
        #: keeps the write path byte-identical to the baseline).
        self._durability = None
        #: Class-wide write hold (see :meth:`hold_writes`): while
        #: ``_holders`` counts an open hold, writes and deletes park on
        #: the gate; it fires when the last one is released.
        self._write_hold = Gate(env)
        self._holders = 0
        #: key -> node ownership overrides installed by live migration
        #: (federation plane).  Empty on a baseline platform, and
        #: :meth:`owner`/:meth:`owners` only consult the dict when at
        #: least one pin exists, so the unpinned path is unchanged.
        self._pins: dict[str, str] = {}
        #: key -> migration epoch, bumped at the start of each handoff.
        #: A put that captured the previous epoch fences itself before
        #: installing, so an in-flight commit on the old owner can never
        #: resurrect pre-migration state.
        self._pin_epochs: dict[str, int] = {}
        self._read_batcher: ReadBatcher | None = None
        if (
            self.model.read_batch is not None
            and self.model.persistent
            and store is not None
        ):
            self._read_batcher = ReadBatcher(
                env, store, collection, self.model.read_batch, name=f"rb-{collection}"
            )
        self.gets = 0
        self.puts = 0
        self.mem_hits = 0
        self.mem_misses = 0
        self.evictions = 0
        self.stale_reads = 0
        self.read_coalesced = 0
        self.near_hits = 0
        self.near_evictions = 0
        self.near_invalidations = 0

    # -- topology ----------------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.ring.nodes

    def owner(self, key: str) -> str:
        """Primary owner node of an object key (used for locality routing).

        A migration pin overrides the hash ring: the pinned node is the
        primary until the key is unpinned or the node fails.
        """
        if self._pins:
            pinned = self._pins.get(key)
            if pinned is not None:
                return pinned
        return self.ring.owner(key)

    def owners(self, key: str) -> tuple[str, ...]:
        ring_owners = self.ring.owners(key, self.model.replication)
        if self._pins:
            pinned = self._pins.get(key)
            if pinned is not None:
                followers = [n for n in ring_owners if n != pinned]
                return (pinned, *followers[: self.model.replication - 1])
        return ring_owners

    # -- data path -----------------------------------------------------------

    def get(self, key: str, caller: str | None = None, fresh: bool = False) -> Process:
        """Fetch a record; the process resolves to the doc or ``None``.

        ``fresh=True`` bypasses the caller's near cache (when one is
        enabled) and reads through to an owner — the invoker passes it
        on CAS-conflict reloads so an optimistic retry can never spin on
        a stale near-cache copy.
        """
        return self.env.process(self.get_steps(key, caller, fresh))

    def get_steps(
        self, key: str, caller: str | None = None, fresh: bool = False
    ) -> Generator:
        """The body of :meth:`get`, for a caller that is already a
        process and only waits for the document: ``doc = yield from
        dht.get_steps(key, caller)`` — same steps, same simulated
        times, no child process.  The returned document is the caller's
        own copy."""
        self.gets += 1
        if self.model.near_cache_entries and not fresh and caller is not None:
            cached = self._near_lookup(caller, key)
            if cached is not None:
                # Served from the caller's own near cache: loopback
                # transfer plus the usual per-op CPU cost, no owner RPC.
                self.near_hits += 1
                yield self.network.transfer(caller, caller, 128)
                if self.model.op_cost_s:
                    yield self.env.timeout(self.model.op_cost_s)
                return copy_doc(cached)
        owners = self.owners(key)
        first = caller if caller in owners else owners[0]
        # Read failover: try the nearest owner first, then the remaining
        # replicas.  Without injected faults the loop runs exactly once.
        order = [first] + [o for o in owners if o != first]
        partition_error: NetworkPartitionError | None = None
        for node in order:
            try:
                yield self.network.transfer(caller, node, 128)
            except NetworkPartitionError as exc:
                partition_error = exc
                continue
            if self.model.op_cost_s:
                yield self.env.timeout(self.model.op_cost_s)
            doc = self._mem[node].get(key)
            if doc is not None:
                self.mem_hits += 1
                self._touch(node, key)
                self._trim(node, protect=key)
                yield self.network.transfer(node, caller, self._size_of(key, doc))
                self._near_install(caller, key, doc)
                return copy_doc(doc)
            self.mem_misses += 1
            if self.store is not None and self.model.persistent:
                loaded = yield from self._load_miss(key, node, owners)
                if loaded is not None:
                    yield self.network.transfer(node, caller, self._size_of(key, loaded))
                    self._near_install(caller, key, loaded)
                    return copy_doc(loaded)
            self._forget(key)
            return None
        raise partition_error

    def _load_miss(self, key: str, node: str, owners: tuple[str, ...]) -> Generator:
        """Load a missed key from the document store via owner ``node``.

        With ``read_coalescing`` the first miss becomes the *leader*: it
        issues the store read (point read or batched multi-get) and
        installs the result into the reachable owners' memory; every
        concurrent miss on the same key parks on the leader's gate and
        shares the result without touching the store.
        """
        if not self.model.read_coalescing:
            loaded = yield from self._store_read(key)
            if loaded is not None:
                self._install_owners(key, node, owners, loaded)
            return loaded
        gate = self._inflight_reads.get(key)
        if gate is not None:
            self.read_coalesced += 1
            loaded = yield gate.wait()
            return loaded
        gate = Gate(self.env)
        self._inflight_reads[key] = gate
        loaded = None
        try:
            loaded = yield from self._store_read(key)
            if loaded is not None:
                self._install_owners(key, node, owners, loaded)
        finally:
            self._inflight_reads.pop(key, None)
            gate.fire(loaded)
        return loaded

    def _store_read(self, key: str) -> Generator:
        """One document-store read, through the miss batcher when on."""
        if self._read_batcher is not None:
            return (yield from self._read_batcher.read(key))
        return (yield self.store.load(self.collection, key))

    def _install_owners(
        self, key: str, node: str, owners: tuple[str, ...], loaded: dict[str, Any]
    ) -> None:
        for replica in owners:
            # Never push a (possibly stale) store copy into an
            # unreachable owner's memory over a partition.
            if replica == node or not self.network.is_partitioned(node, replica):
                self._install(replica, key, loaded)

    def put(self, doc: dict[str, Any], caller: str | None = None) -> Process:
        """Store a record unconditionally; resolves to the stored doc."""
        return self.env.process(self._put_and_copy(doc, caller, None))

    def compare_and_put(
        self, doc: dict[str, Any], expected_version: int, caller: str | None = None
    ) -> Process:
        """Store a record only if the current version matches.

        The process fails with :class:`ConcurrentModificationError` when
        another writer committed in between — the invoker's optimistic
        concurrency control.
        """
        return self.env.process(self._put_and_copy(doc, caller, expected_version))

    def _put_and_copy(
        self, doc: dict[str, Any], caller: str | None, expected_version: int | None
    ) -> Generator:
        """The public puts resolve to a copy the caller may keep."""
        return copy_doc((yield from self.put_steps(doc, caller, expected_version)))

    def put_steps(
        self,
        doc: dict[str, Any],
        caller: str | None = None,
        expected_version: int | None = None,
    ) -> Generator:
        """The body of :meth:`put` (and, with ``expected_version``, of
        :meth:`compare_and_put`), for a caller that is already a process
        and only waits for the commit: ``yield from dht.put_steps(doc,
        caller, version)``.  ``doc`` is copied on the way in; what comes
        back is the stored version itself, shared with the tier — read
        it, never mutate it."""
        key = doc.get("id")
        if not key:
            raise StorageError("DHT put of a document without 'id'")
        while self._holders:
            yield self._write_hold.wait()
        self.puts += 1
        fence_epoch = self._pin_epochs.get(key, 0)
        owners = self.owners(key)
        size = doc_size_bytes(doc)
        # Sloppy-quorum accept: the first *reachable* owner acts as
        # primary.  Healthy runs take the first iteration unconditionally.
        primary: str | None = None
        partition_error: NetworkPartitionError | None = None
        for node in owners:
            try:
                yield self.network.transfer(caller, node, size)
                primary = node
                break
            except NetworkPartitionError as exc:
                partition_error = exc
        if primary is None:
            raise partition_error
        if self.model.op_cost_s:
            yield self.env.timeout(self.model.op_cost_s)
        if expected_version is not None:
            current = self._mem[primary].get(key)
            current_version = current.get("version", 0) if current else 0
            if current_version != expected_version:
                raise ConcurrentModificationError(
                    f"object {key!r}: expected version {expected_version}, "
                    f"found {current_version}"
                )
        # Migration epoch fence: a handoff completed while this commit
        # was in flight repointed ownership, so installing here would
        # resurrect stale state on the old owner.  Fail the commit as a
        # version conflict — the invoker reloads (now routed to the new
        # owner) and retries.  No yields sit between this check and the
        # install, so a commit that passes it is captured by the
        # migration's best-copy read.
        if self._pin_epochs and self._pin_epochs.get(key, 0) != fence_epoch:
            raise ConcurrentModificationError(
                f"object {key!r}: ownership migrated while the commit was in flight"
            )
        # The one copy of the write path: memory, replicas, the
        # write-behind buffer and the durability tracker share it.
        stored = copy_doc(doc)
        self._install(primary, key, stored)
        self._sizes[key] = (stored, size)
        # Commit invalidates every near-cached copy: the next non-fresh
        # read on any caller refetches from an owner.
        self._near_invalidate(key)
        replicas = [o for o in owners if o != primary]
        if replicas:
            reachable = [
                r for r in replicas if not self.network.is_partitioned(primary, r)
            ]
            if reachable:
                yield all_of(
                    self.env,
                    [self.network.transfer(primary, r, size) for r in reachable],
                )
                for replica in reachable:
                    self._install(replica, key, stored)
        queue = self._queues.get(primary)
        # A version the tracker writes through lands in the store with
        # the commit itself; it goes behind only while the queue still
        # holds something (a class just updated to ``strong`` may have
        # left an older version there, which must not land last).
        if queue is not None and (
            self._durability is None
            or self._durability.write_through is None
            or queue._buffer
            or queue._inflight is not None
        ):
            if queue.has_room(key):
                queue.enqueue(stored)
            else:
                yield from queue.enqueue_blocking(stored)
        if self._durability is not None:
            yield from self._durability.on_put(stored)
        return stored

    def stale_get(self, key: str) -> Process:
        """Last-resort read straight from the document store, bypassing
        the (unreachable) owner set — graceful degradation for
        persistent classes when every owner is partitioned away.  The
        result may lag the in-memory truth by the write-behind window.
        Resolves to the doc or ``None``; raises for ephemeral tiers."""
        if self.store is None or not self.model.persistent:
            raise StorageError(
                f"collection {self.collection!r} is ephemeral: no durable "
                "copy to serve a stale read from"
            )
        return self.env.process(self._stale_get(key))

    def _stale_get(self, key: str) -> Generator:
        self.stale_reads += 1
        doc = yield self.store.load(self.collection, key)
        return copy_doc(doc)

    def delete(self, key: str, caller: str | None = None) -> Process:
        """Remove a record from memory (and, if persistent, the store)."""
        return self.env.process(self._delete(key, caller))

    def _delete(self, key: str, caller: str | None) -> Generator:
        while self._holders:
            yield self._write_hold.wait()
        owners = self.owners(key)
        yield self.network.transfer(caller, owners[0], 128)
        if self.model.op_cost_s:
            yield self.env.timeout(self.model.op_cost_s)
        for node in owners:
            self._mem[node].pop(key, None)
        self._forget(key)
        self._near_invalidate(key)
        # A buffered (not yet flushed) update must not resurrect the
        # object after the store delete lands.  Check EVERY node's
        # queue, not just the current primary's: a sloppy-quorum write
        # during a partition buffers on the failover primary, and a
        # rebalance can leave buffered updates on ex-owners.
        for queue in self._queues.values():
            queue.discard(key)
        if self.store is not None and self.model.persistent:
            yield self.store.delete(self.collection, key)
        if self._durability is not None:
            self._durability.on_delete(key)

    # -- residency helpers -------------------------------------------------------

    def _size_of(self, key: str, doc: dict[str, Any]) -> int:
        """Wire size of the resident version ``doc`` of ``key``."""
        sized = self._sizes.get(key)
        if sized is None or sized[0] is not doc:
            sized = self._sizes[key] = (doc, doc_size_bytes(doc))
        return sized[1]

    def _forget(self, key: str) -> None:
        """Drop what is memoised per key once no copy of it is resident."""
        self._sizes.pop(key, None)
        self.ring.forget(key)

    def _touch(self, node: str, key: str) -> None:
        """Move ``key`` to the recently-used end of the node's map."""
        mem = self._mem[node]
        mem[key] = mem.pop(key)

    def _install(self, node: str, key: str, doc: dict[str, Any]) -> None:
        """Insert/refresh an entry, evicting LRU entries over the cap.

        Entries buffered for write-behind are never evicted: their only
        up-to-date copy is the in-memory one until the flusher runs.
        """
        mem = self._mem[node]
        mem.pop(key, None)
        mem[key] = doc
        self._trim(node, protect=key)

    def _trim(self, node: str, protect: str) -> None:
        """Evict LRU entries above the cap, sparing ``protect`` and any
        entry still buffered for write-behind (its only up-to-date copy
        is in memory until the flusher runs)."""
        cap = self.model.max_entries_per_node
        if cap is None:
            return
        mem = self._mem[node]
        queue = self._queues.get(node)
        pending = queue._buffer if queue is not None else {}
        while len(mem) > cap:
            victim = next(
                (k for k in mem if k != protect and k not in pending), None
            )
            if victim is None:
                return  # everything resident is pinned
            del mem[victim]
            self._forget(victim)
            self.evictions += 1

    # -- near cache (non-owner callers) ------------------------------------

    def _near_lookup(self, caller: str, key: str) -> dict[str, Any] | None:
        """The caller's near-cached copy of ``key``, LRU-touched, or None."""
        cache = self._near.get(caller)
        if not cache:
            return None
        doc = cache.get(key)
        if doc is None:
            return None
        cache[key] = cache.pop(key)
        return doc

    def _near_install(self, caller: str | None, key: str, doc: dict[str, Any]) -> None:
        """Cache a remotely-fetched record on the caller (bounded LRU).

        Owners never near-cache: their partition memory is the
        authoritative copy already.
        """
        cap = self.model.near_cache_entries
        if not cap or caller is None or caller in self.owners(key):
            return
        cache = self._near.get(caller)
        if cache is None:
            return
        cache.pop(key, None)
        cache[key] = doc
        while len(cache) > cap:
            del cache[next(iter(cache))]
            self.near_evictions += 1

    def _near_invalidate(self, key: str) -> None:
        """Drop every near-cached copy of ``key`` (commit/delete)."""
        if not self.model.near_cache_entries:
            return
        for cache in self._near.values():
            if cache.pop(key, None) is not None:
                self.near_invalidations += 1

    # -- membership (elasticity + failures) -----------------------------------

    def add_node(self, node: str) -> dict[str, int]:
        """Join a node and rebalance ownership onto it."""
        self.ring.add_node(node)
        self._mem[node] = {}
        self._near[node] = {}
        self._add_queue(node)
        return self.rebalance()

    def _add_queue(self, node: str) -> None:
        """Build ``node``'s write-behind queue (persistent tiers only)."""
        if not self.model.persistent:
            return
        self._queues[node] = WriteBehindQueue(
            self.env,
            self.store,
            self.collection,
            self.model.write_behind,
            name=f"wb-{node}",
            tracer=self.tracer,
        )

    def fail_node(self, node: str) -> dict[str, int]:
        """Crash a node: its memory and *unflushed write-behind buffer*
        are lost; surviving replicas are re-spread over the new ring.

        Returns ``{"lost_pending": n, "keys_moved": m, ...}``.  Whether
        object state survives depends on the class runtime's
        configuration: replicated entries live on in other nodes'
        memory, persistent entries reload from the document store, and
        non-replicated ephemeral entries are simply gone — exactly the
        durability trade-off the templates encode.
        """
        if node not in self.ring:
            raise StorageError(f"node {node!r} is not a DHT member")
        if len(self.ring) == 1:
            raise StorageError("cannot fail the last DHT node")
        lost_pending = 0
        queue = self._queues.pop(node, None)
        if queue is not None:
            lost_pending = queue.stop()["lost"]
        self._mem.pop(node, None)
        self._near.pop(node, None)
        self.ring.remove_node(node)
        if self._pins:
            # Pins to the dead node dissolve: ownership falls back to
            # the hash ring and rebalance reinstalls surviving copies.
            self._pins = {k: n for k, n in self._pins.items() if n != node}
        stats = self.rebalance()
        stats["lost_pending"] = lost_pending
        return stats

    def rebalance(self) -> dict[str, int]:
        """Re-spread every surviving record per the current ring.

        Surviving copies are merged newest-version-wins, then installed
        on each key's current owner set.  Runs instantaneously — the
        experiments measure the *durability* consequences of membership
        change, not state-transfer bandwidth.
        """
        # Ownership is changing under every cached key — drop the near
        # caches wholesale rather than re-validating entry by entry.
        for cache in self._near.values():
            cache.clear()
        merged: dict[str, dict[str, Any]] = {}
        for node_mem in self._mem.values():
            for key, doc in node_mem.items():
                current = merged.get(key)
                if current is None or doc.get("version", 0) > current.get("version", 0):
                    merged[key] = doc
        moved = 0
        for node in self._mem:
            self._mem[node] = {}
        self._sizes.clear()
        for key, doc in merged.items():
            for owner in self.owners(key):
                moved += 1
                self._mem[owner][key] = doc
        return {"keys_moved": moved, "keys_resident": len(merged)}

    # -- live migration (federation plane) -----------------------------------

    def pin_epoch(self, key: str) -> int:
        """The key's current migration epoch (0 = never migrated)."""
        return self._pin_epochs.get(key, 0)

    def prepare_migration(self, key: str) -> int:
        """Open a handoff: bump the key's migration epoch so every
        commit already in flight fences itself instead of installing on
        the old owner.  Returns the new epoch."""
        epoch = self._pin_epochs.get(key, 0) + 1
        self._pin_epochs[key] = epoch
        return epoch

    def best_resident(self, key: str) -> dict[str, Any] | None:
        """Newest in-memory version of ``key`` across *all* nodes —
        replicas and stranded sloppy-quorum copies included — itself,
        shared with the tier: read it, never mutate it.  Instant; part
        of the migration handoff's best-source selection."""
        best: dict[str, Any] | None = None
        for mem in self._mem.values():
            doc = mem.get(key)
            if doc is not None and (
                best is None or doc.get("version", 0) > best.get("version", 0)
            ):
                best = doc
        return best

    def complete_migration(
        self, key: str, target: str, doc: dict[str, Any] | None
    ) -> None:
        """Atomically (no sim yields) repoint ownership of ``key`` to
        ``target``: pin it, drop copies outside the new owner set, and
        install the handoff's version version-guarded (never downgrading
        a newer resident copy).  ``doc`` is installed as it is — the
        resident or stored version the handoff found — so the caller
        hands it over and keeps no hold on it."""
        if target not in self.ring:
            raise StorageError(f"node {target!r} is not a DHT member")
        self._pins[key] = target
        owners = self.owners(key)
        for node, mem in self._mem.items():
            if node not in owners:
                mem.pop(key, None)
        if doc is not None:
            for node in owners:
                current = self._mem[node].get(key)
                if current is None or doc.get("version", 0) > current.get(
                    "version", 0
                ):
                    self._install(node, key, doc)
        self._near_invalidate(key)

    # -- durability (snapshot/restore plane) ---------------------------------

    def attach_durability(self, tracker) -> None:
        """Hook a durability tracker into the write path.

        Never called in the baseline; with no tracker attached the
        write/delete paths are unchanged."""
        self._durability = tracker

    # -- write hold (snapshot cuts, live migration) --------------------------

    def hold_writes(self) -> None:
        """Quiesce the write path: every put/delete that arrives while a
        hold is open parks until the last holder calls
        :meth:`release_writes`.  Reads are unaffected.  A snapshot cut
        and a live migration each take their own hold, so they may
        overlap in either order."""
        self._holders += 1

    def release_writes(self) -> None:
        """Release one hold; parked writers resume once none is open."""
        if not self._holders:
            raise StorageError(f"collection {self.collection!r}: no write hold open")
        self._holders -= 1
        if not self._holders:
            self._write_hold.fire()

    # -- maintenance ---------------------------------------------------------

    def flush_all(self) -> Process:
        """Drain every node's write-behind queue; resolves when durable."""
        return self.env.process(self._flush_all())

    def _flush_all(self) -> Generator:
        drains = [queue.drain() for queue in self._queues.values()]
        if drains:
            yield all_of(self.env, drains)

    def seed(self, doc: dict[str, Any], persist: bool = True) -> None:
        """Instantly install a record in memory (and, optionally, the
        document store) — experiment/fixture setup, bypassing all cost
        models.  Never use this on a measured code path."""
        key = doc.get("id")
        if not key:
            raise StorageError("cannot seed a document without 'id'")
        stored = copy_doc(doc)
        for node in self.owners(key):
            self._mem[node][key] = stored
        if persist and self.store is not None and self.model.persistent:
            # Instant and the tier's own version: straight to the engine,
            # which keeps (dict) or serialises (SQLite) that one version.
            self.store.backend.put(self.collection, stored)

    def purge(self, key: str) -> Process:
        """Remove a record from every node's memory and buffered queue,
        then durably delete it from the store — restore bookkeeping for
        objects that do not exist at the restore point.  Unlike
        :meth:`delete` it pays no data-plane network cost and does not
        notify the durability tracker."""
        return self.env.process(self._purge(key))

    def _purge(self, key: str) -> Generator:
        for mem in self._mem.values():
            mem.pop(key, None)
        self._forget(key)
        self._near_invalidate(key)
        for queue in self._queues.values():
            queue.discard(key)
        if self.store is not None and self.model.persistent:
            yield self.store.delete(self.collection, key)

    def peek(self, key: str) -> dict[str, Any] | None:
        """Instant read of the primary's memory (tests/diagnostics)."""
        return copy_doc(self._mem[self.owner(key)].get(key))

    def current(self, key: str) -> dict[str, Any] | None:
        """The version of ``key`` a snapshot cut captures: the primary's
        resident one, else (persistent tiers) the stored one — itself,
        not a copy: read it, never mutate it.  Instant."""
        doc = self._mem[self.owner(key)].get(key)
        if doc is None and self.store is not None and self.model.persistent:
            doc = self.store.backend.get(self.collection, key)
        return doc

    def scan_ids(self) -> list[str]:
        """All object ids known to this cache: resident primaries plus
        (for persistent caches) everything in the document store.
        Instant — an admin/catalog operation, not a data-plane one."""
        ids = {
            key
            for node, mem in self._mem.items()
            for key in mem
            if self.owner(key) == node
        }
        if self.store is not None and self.model.persistent:
            ids.update(self.store.keys(self.collection))
            for queue in self._queues.values():
                ids.update(queue._buffer)
        return sorted(ids)

    def mem_count(self, node: str | None = None) -> int:
        """Records resident in memory on ``node`` (or primary copies total)."""
        if node is not None:
            return len(self._mem[node])
        return sum(1 for n in self._mem for k in self._mem[n] if self.owner(k) == n)

    @property
    def write_behind_stats(self) -> dict[str, int]:
        """Aggregated flusher statistics."""
        return {
            "enqueued": sum(q.enqueued for q in self._queues.values()),
            "coalesced": sum(q.coalesced for q in self._queues.values()),
            "flush_ops": sum(q.flush_ops for q in self._queues.values()),
            "docs_flushed": sum(q.docs_flushed for q in self._queues.values()),
            "blocked_enqueues": sum(q.blocked_enqueues for q in self._queues.values()),
            "flush_failures": sum(q.flush_failures for q in self._queues.values()),
            "pending": sum(q.pending for q in self._queues.values()),
        }

    @property
    def read_path_stats(self) -> dict[str, int]:
        """Aggregated read-path statistics (coalescing/batching/near cache)."""
        stats = {
            "read_coalesced": self.read_coalesced,
            "near_hits": self.near_hits,
            "near_evictions": self.near_evictions,
            "near_invalidations": self.near_invalidations,
            "near_resident": sum(len(c) for c in self._near.values()),
            "batched_reads": 0,
            "batch_ops": 0,
            "batch_deduplicated": 0,
        }
        if self._read_batcher is not None:
            stats["batched_reads"] = self._read_batcher.requested
            stats["batch_ops"] = self._read_batcher.batch_ops
            stats["batch_deduplicated"] = self._read_batcher.deduplicated
        return stats

    def stats(self) -> dict[str, Any]:
        """Lookup counts and the memory hit rate; the read path's and the
        flusher's numbers are :attr:`read_path_stats` and
        :attr:`write_behind_stats`."""
        lookups = self.mem_hits + self.mem_misses
        return {
            "gets": self.gets,
            "puts": self.puts,
            "mem_hits": self.mem_hits,
            "mem_misses": self.mem_misses,
            "hit_rate": self.mem_hits / lookups if lookups else 0.0,
            "stale_reads": self.stale_reads,
        }
