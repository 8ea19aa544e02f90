"""Versioned state tracking and consistent snapshot cuts.

One :class:`ClassDurabilityState` rides along each enabled class's DHT
(attached via ``Dht.attach_durability``), observing every committed
write and delete without touching the documents themselves — the write
path stays byte-identical when no tracker is attached.

The :class:`SnapshotCoordinator` turns that bookkeeping into durable
*generations*: it holds the class's writes (the DHT's write hold),
drains every write-behind queue so a cut never splits a batch,
captures the objects dirtied since the previous cut at one
consistent instant, and uploads an incremental delta snapshot (data
blob + manifest + latest pointer) to the object store.

The live ``index`` maps every live object to the generation holding its
bytes.  A generation's manifest (``"format": 2``) carries the part of it
that cut changed and the ``base`` generation it builds on; every so
often — when the deltas since the last one together hold as many entries
as the live index — a cut writes the whole index instead (a *full*
checkpoint, ``base`` null), so a cut costs what it dirtied, amortised,
and a restore folds a bounded chain.  docs/durability.md has the format
and the GC invariant.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Generator, Iterable

from repro.errors import BucketNotFoundError, KeyNotFoundError, SnapshotNotFoundError
from repro.durability.policy import MODE_ON_COMMIT, DurabilityPolicy
from repro.monitoring.events import EventLog
from repro.monitoring.tracing import Tracer
from repro.sim.kernel import Environment, Process
from repro.storage.object_store import ObjectStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.dht import Dht

#: Snapshot/restore spans share one synthetic trace, like write-behind
#: flushes: cuts are background work not attributable to one request.
DURABILITY_TRACE_ID = "durability"

__all__ = ["ClassDurabilityState", "SnapshotCoordinator", "DURABILITY_TRACE_ID"]


def data_key(cls: str, generation: int) -> str:
    return f"{cls}/gen-{generation:06d}/data"


def manifest_key(cls: str, generation: int) -> str:
    return f"{cls}/gen-{generation:06d}/manifest"


def epoch_key(cls: str, object_id: str) -> str:
    return f"{cls}/epoch/{object_id}"


def latest_key(cls: str) -> str:
    return f"{cls}/latest"


_GENERATION = itemgetter("generation")


class ClassDurabilityState:
    """Durability bookkeeping for one class (a side table, never the docs).

    Tracks a monotonic change sequence, which objects are dirty since
    the last cut, the commit history per object not yet covered by a cut
    (what recovery measures RPO from), and the snapshot generations
    minted so far.
    """

    def __init__(
        self,
        env: Environment,
        cls: str,
        policy: DurabilityPolicy,
        object_store: ObjectStore,
        bucket: str,
        events: EventLog | None = None,
    ) -> None:
        self.env = env
        self.cls = cls
        self.policy = policy
        self.object_store = object_store
        self.bucket = bucket
        self.events = events
        #: Monotonic per-class change stamp; every commit/delete bumps it.
        self.seq = 0
        self.next_generation = 1
        #: object id -> seq of its latest change since the last cut.
        self.dirty: dict[str, int] = {}
        #: object id -> seq of its deletion since the last cut.
        self.tombstones: dict[str, int] = {}
        #: object id -> [(sim_time, version), ...] commits not yet known
        #: durable — trimmed at each cut, consumed by recovery.
        self.commits: dict[str, list[tuple[float, int]]] = {}
        #: object id -> latest version persisted as a commit epoch
        #: (``persistence: strong`` only).
        self.epoch_versions: dict[str, int] = {}
        #: Live object id -> (generation, version) across all cuts.  It
        #: differs from what the manifests say only at ``dirty`` and
        #: ``tombstones`` keys — what the next cut writes.
        self.index: dict[str, tuple[int, int]] = {}
        #: Generations with blobs in the store, in minting order:
        #: {"generation", "cut_time", "captured", "tombstones", "kind"
        #: ("full" | "delta"), "base", "chain" (manifests a restore
        #: reads)} — GC prunes this list in step with the store.
        self.generations: list[dict[str, Any]] = []
        #: generation -> live index entries whose bytes it holds (absent
        #: at zero), and generation -> the generation from which on no
        #: index references it (set when its count reaches zero): what
        #: GC reads instead of the index.
        self.refs: dict[int, int] = {}
        self.superseded_at: dict[int, int] = {}
        #: Generations older than this are kept for their blobs only
        #: (GC moves it; nothing below it can be restored to).
        self.restorable_from = 0
        #: The generation whose manifest chain says what ``index`` said
        #: at the last cut or class restore — what the next delta builds
        #: on — and how many entries the deltas on that chain hold.
        self.base: int | None = None
        self.delta_entries = 0
        self.commits_recorded = 0
        self.epoch_writes = 0
        self.cuts_taken = 0
        self.cuts_skipped = 0
        self.docs_captured = 0
        self.snapshot_bytes = 0
        self.gc_generations = 0
        self.recoveries = 0
        self.restores = 0
        self.last_recovery: dict[str, Any] | None = None
        #: ``(document_store, collection)`` when this class's commits are
        #: written through (``persistence: strong`` on a durable store
        #: backend, e.g. SQLite): synchronously with the epoch write, so
        #: an acknowledged commit survives process death in the backend
        #: itself, and instead of being buffered for write-behind.
        self.write_through: tuple[Any, str] | None = None

    # -- DHT write-path hooks (see Dht.attach_durability) -------------------

    def on_put(self, doc: dict[str, Any]) -> Generator:
        """Record one committed write; synchronous epoch write when the
        class declared ``persistence: strong`` (the commit does not
        return until its epoch object is durable — RPO = 0)."""
        key = doc["id"]
        self.seq += 1
        self.dirty[key] = self.seq
        self.tombstones.pop(key, None)
        version = int(doc.get("version", 0) or 0)
        self.commits.setdefault(key, []).append((self.env.now, version))
        self.commits_recorded += 1
        if self.policy.mode == MODE_ON_COMMIT:
            payload = json.dumps(doc, sort_keys=True, default=str).encode()
            yield self.object_store.put_timed(
                self.bucket, epoch_key(self.cls, key), payload, "application/json"
            )
            self.epoch_writes += 1
            self.epoch_versions[key] = version
            if self.write_through is not None:
                # The timed epoch write above is what the commit waits
                # for; the store books the write-through's units itself.
                store, collection = self.write_through
                store.write_through(collection, doc)

    def on_delete(self, key: str) -> None:
        """Record one committed delete (the store delete already landed,
        so there is nothing left to lose for this object)."""
        self.seq += 1
        self.tombstones[key] = self.seq
        self.dirty.pop(key, None)
        self.commits.pop(key, None)
        if self.epoch_versions.pop(key, None) is not None:
            try:
                self.object_store.delete_object(self.bucket, epoch_key(self.cls, key))
            except (KeyNotFoundError, BucketNotFoundError):
                pass

    # -- index and generations ----------------------------------------------

    def generation(self, number: int) -> dict[str, Any]:
        """The retained entry of generation ``number``."""
        at = bisect_left(self.generations, number, key=_GENERATION)
        if at == len(self.generations) or self.generations[at]["generation"] != number:
            raise SnapshotNotFoundError(
                f"generation {number} of class {self.cls!r} is not retained"
            )
        return self.generations[at]

    def chain(self, entry: dict[str, Any]) -> list[dict[str, Any]]:
        """The entries whose manifests rebuild the index as of
        ``entry``: its nearest full checkpoint, then each delta up to it."""
        chain = [entry]
        while chain[-1]["base"] is not None:
            chain.append(self.generation(chain[-1]["base"]))
        return chain[::-1]

    def reindex(
        self,
        changes: dict[str, tuple[int, int]],
        removed: Iterable[str],
        at: int,
    ) -> None:
        """Apply one cut's (or one object restore's) entries to the live
        index in place, moving the reference counts with them; a
        generation that loses its last reference was superseded ``at``."""
        index, refs = self.index, self.refs
        dropped = [index.pop(key, None) for key in removed]
        for key, ref in changes.items():
            dropped.append(index.get(key))
            index[key] = ref
            refs[ref[0]] = refs.get(ref[0], 0) + 1
        for old in dropped:
            if old is not None:
                refs[old[0]] -= 1
                if not refs[old[0]]:
                    del refs[old[0]]
                    self.superseded_at[old[0]] = at

    def reset_index(
        self, index: dict[str, tuple[int, int]], base: int, delta_entries: int
    ) -> None:
        """Replace the live index wholesale (class restore) with the one
        folded from ``base``'s chain, and recount every reference."""
        refs = dict(Counter(ref[0] for ref in index.values()))
        for number in self.refs.keys() - refs.keys():
            self.superseded_at[number] = self.next_generation
        self.index, self.refs = index, refs
        self.base = base
        self.delta_entries = delta_entries

    # -- history ------------------------------------------------------------

    def commit_history(self, key: str) -> list[tuple[float, int]]:
        """Commit ``(time, version)`` entries for ``key`` not yet covered
        by a cut — the one commit history, kept in the side table."""
        return list(self.commits.get(key, ()))

    def describe(self) -> dict[str, Any]:
        return {
            "policy": self.policy.describe(),
            "seq": self.seq,
            "dirty": len(self.dirty),
            "generations": [dict(entry) for entry in self.generations],
            "generation_count": len(self.generations),
            "commits_recorded": self.commits_recorded,
            "epoch_writes": self.epoch_writes,
            "cuts_taken": self.cuts_taken,
            "cuts_skipped": self.cuts_skipped,
            "docs_captured": self.docs_captured,
            "snapshot_bytes": self.snapshot_bytes,
            "gc_generations": self.gc_generations,
            "recoveries": self.recoveries,
            "restores": self.restores,
            "last_recovery": dict(self.last_recovery) if self.last_recovery else None,
        }


class SnapshotCoordinator:
    """Takes consistent cuts of one class and garbage-collects old ones."""

    def __init__(
        self,
        env: Environment,
        dht: "Dht",
        tracker: ClassDurabilityState,
        tracer: Tracer | None = None,
    ) -> None:
        self.env = env
        self.dht = dht
        self.tracker = tracker
        self.tracer = tracer
        self._cutting = False

    def cut(self) -> Process:
        """Take one consistent cut; resolves to the manifest (or ``None``
        when there was nothing new to capture)."""
        return self.env.process(self._cut())

    def _cut(self) -> Generator:
        tracker = self.tracker
        if self._cutting:
            tracker.cuts_skipped += 1
            return None
        if not tracker.dirty and not tracker.tombstones:
            tracker.cuts_skipped += 1
            return None
        self._cutting = True
        try:
            return (yield from self._cut_inner())
        finally:
            self._cutting = False

    def _cut_inner(self) -> Generator:
        tracker = self.tracker
        dht = self.dht
        span = None
        if self.tracer is not None and self.tracer.enabled:
            span = self.tracer.start(
                DURABILITY_TRACE_ID, "durability.snapshot", cls=tracker.cls
            )
        # Hold: writers and deleters park until the hold is released;
        # drain the write-behind queues under it so the cut never splits
        # a batch (a batch is either wholly before or wholly after it).
        dht.hold_writes()
        try:
            yield dht.flush_all()
            cut_time = self.env.now
            generation = tracker.next_generation
            tracker.next_generation += 1
            captured: dict[str, dict[str, Any]] = {}
            # The versions themselves: they are only serialised below.
            for key in sorted(tracker.dirty):
                doc = dht.current(key)
                if doc is not None:
                    captured[key] = doc
            tombstoned = sorted(tracker.tombstones)
            changes = {
                key: (generation, int(doc.get("version", 0) or 0))
                for key, doc in captured.items()
            }
            seq_at_cut = tracker.seq
            tracker.dirty.clear()
            tracker.tombstones.clear()
        finally:
            # Writers resume before the uploads: the cut instant is
            # fixed, and upload time must not extend the write stall.
            dht.release_writes()
        # Commits covered by this cut (version <= the captured version)
        # are durable now; drop them so recovery never counts them lost.
        # Walk the pending commits, not the index: the cut must not cost
        # a pass over every live object per thing it can skip.
        for key in list(tracker.commits):
            ref = changes.get(key) or tracker.index.get(key)
            if ref is not None:
                kept = [entry for entry in tracker.commits[key] if entry[1] > ref[1]]
                if kept:
                    tracker.commits[key] = kept
                else:
                    del tracker.commits[key]
        for key in tombstoned:
            tracker.commits.pop(key, None)
        data_bytes = json.dumps(captured, sort_keys=True, default=str).encode()
        # A full checkpoint once the deltas since the last one hold as
        # many entries as the index itself: writing the whole index then
        # costs no more than what the deltas already did, so a cut stays
        # O(dirty) amortised — and a class that dirties everything every
        # cut checkpoints every cut.
        base = tracker.base
        entries = len(changes) + len(tombstoned)
        if base is None or tracker.delta_entries + entries >= len(tracker.index):
            base, delta_entries = None, 0
            index = dict(tracker.index)
            for key in tombstoned:
                index.pop(key, None)
            index.update(changes)
        else:
            delta_entries = tracker.delta_entries + entries
            index = changes
        manifest = {
            "cls": tracker.cls,
            "generation": generation,
            "cut_time": cut_time,
            "seq": seq_at_cut,
            "format": 2,
            "base": base,
            # As is: dumps sorts the keys and writes a tuple as a list.
            "index": index,
            "captured": sorted(captured),
            "tombstones": tombstoned,
        }
        manifest_bytes = json.dumps(manifest, sort_keys=True).encode()
        store = tracker.object_store
        yield store.put_timed(
            tracker.bucket, data_key(tracker.cls, generation), data_bytes,
            "application/json",
        )
        yield store.put_timed(
            tracker.bucket, manifest_key(tracker.cls, generation), manifest_bytes,
            "application/json",
        )
        pointer = json.dumps({"cls": tracker.cls, "generation": generation}).encode()
        yield store.put_timed(
            tracker.bucket, latest_key(tracker.cls), pointer, "application/json"
        )
        tracker.generations.append(
            {
                "generation": generation,
                "cut_time": cut_time,
                "captured": len(captured),
                "tombstones": len(tombstoned),
                "kind": "full" if base is None else "delta",
                "base": base,
                "chain": 1 if base is None else tracker.generation(base)["chain"] + 1,
            }
        )
        tracker.reindex(changes, tombstoned, at=generation)
        tracker.base = generation
        tracker.delta_entries = delta_entries
        tracker.cuts_taken += 1
        tracker.docs_captured += len(captured)
        tracker.snapshot_bytes += len(data_bytes) + len(manifest_bytes)
        if tracker.events is not None:
            tracker.events.record(
                "durability.snapshot",
                cls=tracker.cls,
                generation=generation,
                docs=len(captured),
                tombstones=len(tombstoned),
            )
        if self.tracer is not None:
            self.tracer.finish(span, generation=generation, docs=len(captured))
        self._gc()
        return manifest

    def _gc(self) -> None:
        """Delete generations past retention that nothing needs.  The
        generations cut inside the retention window (always the latest)
        stay restorable; an older one survives, for its blobs only, while
        the live index references it — an unchanged object's bytes may
        live many generations back —, while a restorable generation's
        index does, or while a restorable generation's manifest chain
        passes through it.  Reads per-generation counts, never the index."""
        tracker = self.tracker
        retention = tracker.policy.retention_s
        if retention is None or not tracker.generations:
            return
        cutoff = self.env.now - retention
        young = next(
            (entry for entry in tracker.generations if entry["cut_time"] >= cutoff),
            tracker.generations[-1],
        )
        # Never backwards (a class update may lengthen the retention):
        # below it, what a generation's index needs may be gone already.
        oldest = tracker.restorable_from = max(
            tracker.restorable_from, young["generation"]
        )
        chained: set[int] = set()
        survivors = []
        for entry in reversed(tracker.generations):
            generation = entry["generation"]
            on_chain = generation >= oldest or generation in chained
            if on_chain and entry["base"] is not None:
                chained.add(entry["base"])
            if (
                on_chain
                or generation in tracker.refs
                or tracker.superseded_at.get(generation, generation) > oldest
            ):
                survivors.append(entry)
            else:
                tracker.superseded_at.pop(generation, None)
                for key in (
                    data_key(tracker.cls, generation),
                    manifest_key(tracker.cls, generation),
                ):
                    try:
                        tracker.object_store.delete_object(tracker.bucket, key)
                    except (KeyNotFoundError, BucketNotFoundError):
                        pass
                tracker.gc_generations += 1
        survivors.reverse()
        tracker.generations = survivors
