"""Versioned state tracking and consistent snapshot cuts.

One :class:`ClassDurabilityState` rides along each enabled class's DHT
(attached via ``Dht.attach_durability``), observing every committed
write and delete without touching the documents themselves — the write
path stays byte-identical when no tracker is attached.

The :class:`SnapshotCoordinator` turns that bookkeeping into durable
*generations*: it quiesces the class's write path (the DHT's cut gate),
fences and drains every write-behind queue so a cut never splits a
batch, captures the objects dirtied since the previous cut at one
consistent instant, and uploads an incremental delta snapshot (data
blob + manifest + latest pointer) to the object store.  The manifest's
``index`` maps every live object to the generation holding its bytes,
so restore never has to fold a delta chain blindly and GC knows which
old generations are still referenced.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Generator

from repro.errors import BucketNotFoundError, KeyNotFoundError
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


class ClassDurabilityState:
    """Durability bookkeeping for one class (a side table, never the docs).

    Tracks a monotonic change sequence, which objects are dirty since
    the last cut, commit history per object (for RPO measurement and
    event-log replay), and the snapshot generations minted so far.
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
        #: Live object id -> (generation, version) across all cuts.
        self.index: dict[str, tuple[int, int]] = {}
        #: Minted generations: {"generation", "cut_time", "captured",
        #: "tombstones"} — GC prunes this list in step with the store.
        self.generations: list[dict[str, Any]] = []
        #: Event-log entries older than this are ignored by
        #: :meth:`commit_history` (reset by point-in-time restore, which
        #: discards history beyond the restore point).
        self.history_floor = 0.0
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
        #: ``(document_store, collection)`` when the platform's store
        #: backend is durable (e.g. SQLite): strong-persistence commits
        #: are written through to it synchronously with the epoch write,
        #: so an acknowledged commit survives process death in the
        #: backend itself, not just the modeled object store.
        self.write_through: tuple[Any, str] | None = None
        self.write_through_docs = 0

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
        if self.events is not None:
            self.events.record(
                "durability.commit", cls=self.cls, object=key, version=version
            )
        if self.policy.mode == MODE_ON_COMMIT:
            payload = json.dumps(doc, sort_keys=True, default=str).encode()
            yield self.object_store.put_timed(
                self.bucket, epoch_key(self.cls, key), payload, "application/json"
            )
            self.epoch_writes += 1
            self.epoch_versions[key] = version
            if self.write_through is not None:
                # The timed epoch write above is the modeled durability
                # cost; landing the same doc in the durable backend is
                # bookkeeping on the same commit, so it charges no
                # additional simulated work.
                store, collection = self.write_through
                store.put_sync(collection, doc)
                self.write_through_docs += 1

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

    # -- history ------------------------------------------------------------

    def commit_history(self, key: str) -> list[tuple[float, int]]:
        """Commit (time, version) entries for ``key``, replayed from the
        control-plane event log when it is enabled (PR 1), falling back
        to the tracker's own side table otherwise — identical data, but
        the event log survives as an auditable external record."""
        if self.events is not None and self.events.enabled:
            entries = [
                (event.at, int(event.fields.get("version", 0)))
                for event in self.events.of_type("durability.commit")
                if event.fields.get("cls") == self.cls
                and event.fields.get("object") == key
                and event.at >= self.history_floor
            ]
            if entries:
                return entries
        return list(self.commits.get(key, []))

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
        # Quiesce: writers and deleters park on the cut gate; fence the
        # write-behind queues and drain them so the cut never splits a
        # batch (a batch is either wholly before or wholly after it).
        dht.begin_cut()
        cut_open = True
        try:
            dht.fence_queues()
            try:
                yield dht.flush_all()
            finally:
                dht.unfence_queues()
            cut_time = self.env.now
            generation = tracker.next_generation
            tracker.next_generation += 1
            captured: dict[str, dict[str, Any]] = {}
            for key in sorted(tracker.dirty):
                doc = dht.peek(key)
                if doc is None and dht.store is not None and dht.model.persistent:
                    doc = dht.store.get_sync(dht.collection, key)
                if doc is not None:
                    captured[key] = doc
            tombstoned = sorted(tracker.tombstones)
            new_index = dict(tracker.index)
            for key in tombstoned:
                new_index.pop(key, None)
            for key, doc in captured.items():
                new_index[key] = (generation, int(doc.get("version", 0) or 0))
            seq_at_cut = tracker.seq
            tracker.dirty.clear()
            tracker.tombstones.clear()
        finally:
            # Writers resume before the uploads: the cut instant is
            # fixed, and upload time must not extend the write stall.
            dht.end_cut()
            cut_open = False
        del cut_open
        # Commits covered by this cut (version <= the captured version)
        # are durable now; drop them so recovery never counts them lost.
        # Walk the pending commits, not the index: the cut must not cost
        # a pass over every live object per thing it can skip.
        for key in list(tracker.commits):
            ref = new_index.get(key)
            if ref is not None:
                kept = [entry for entry in tracker.commits[key] if entry[1] > ref[1]]
                if kept:
                    tracker.commits[key] = kept
                else:
                    del tracker.commits[key]
        for key in tombstoned:
            tracker.commits.pop(key, None)
        data_bytes = json.dumps(captured, sort_keys=True, default=str).encode()
        manifest = {
            "cls": tracker.cls,
            "generation": generation,
            "cut_time": cut_time,
            "seq": seq_at_cut,
            # As is: dumps sorts the keys and writes a tuple as a list.
            "index": new_index,
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
        tracker.index = new_index
        tracker.generations.append(
            {
                "generation": generation,
                "cut_time": cut_time,
                "captured": len(captured),
                "tombstones": len(tombstoned),
            }
        )
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
        """Delete generations past retention that the live index no
        longer references.  The latest generation always survives, and a
        referenced generation survives regardless of age — the index is
        incremental, so an unchanged object's bytes may live many
        generations back."""
        tracker = self.tracker
        retention = tracker.policy.retention_s
        if retention is None or not tracker.generations:
            return
        referenced = {ref[0] for ref in tracker.index.values()}
        latest = tracker.generations[-1]["generation"]
        cutoff = self.env.now - retention
        survivors = []
        for entry in tracker.generations:
            generation = entry["generation"]
            if (
                generation != latest
                and generation not in referenced
                and entry["cut_time"] < cutoff
            ):
                for key in (
                    data_key(tracker.cls, generation),
                    manifest_key(tracker.cls, generation),
                ):
                    try:
                        tracker.object_store.delete_object(tracker.bucket, key)
                    except (KeyNotFoundError, BucketNotFoundError):
                        pass
                tracker.gc_generations += 1
            else:
                survivors.append(entry)
        tracker.generations = survivors
