"""Point-in-time restore and measured crash recovery.

Restore is the *operator* path: roll a class (or a single object) back
to the latest snapshot generation at or before a requested point in
time, paying timed object-store reads for the generation's manifest
chain (read concurrently) and every data blob the folded index
references.

Recovery is the *platform* path: after ``Dht.fail_node`` drops a
partition (and its unflushed write-behind buffer), the plane reloads
lost state from the best durable source per object — flushed store
copy, snapshot generation, or commit epoch — replays the commit history
(the control-plane event log when enabled) up to the crash point to
find what could not be recovered, and reports measured **RPO**
(sim-seconds between the crash and the earliest unrecovered commit) and
**RTO** (sim-seconds from the crash to the first successful read after
reinstall).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Generator

from repro.durability.policy import MODE_ON_COMMIT
from repro.durability.snapshot import (
    DURABILITY_TRACE_ID,
    ClassDurabilityState,
    data_key,
    epoch_key,
    manifest_key,
)
from repro.errors import BucketNotFoundError, KeyNotFoundError, SnapshotNotFoundError
from repro.monitoring.collector import MonitoringSystem
from repro.monitoring.events import EventLog
from repro.monitoring.tracing import Tracer
from repro.sim.kernel import Environment, all_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.crm.runtime import ClassRuntime

__all__ = ["RestoreManager"]


def _doc_version(doc: dict[str, Any] | None) -> int:
    """Version of a record, with ``-1`` for "absent" so that a present
    version-0 document still beats no document at all."""
    if doc is None:
        return -1
    return int(doc.get("version", 0) or 0)


class RestoreManager:
    """Executes restores and crash recoveries for the durability plane."""

    def __init__(
        self,
        env: Environment,
        monitoring: MonitoringSystem | None = None,
        events: EventLog | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.env = env
        self.monitoring = monitoring
        self.events = events
        self.tracer = tracer

    # -- point-in-time restore ----------------------------------------------

    def restore_class(
        self,
        runtime: "ClassRuntime",
        tracker: ClassDurabilityState,
        at: float | None = None,
    ) -> Generator:
        """Roll the whole class back to the latest cut at or before
        ``at`` (latest overall when ``None``).  Resolves to a summary
        dict; raises :class:`SnapshotNotFoundError` when no generation
        qualifies."""
        entry = self._generation_at(tracker, at)
        generation = entry["generation"]
        span = None
        if self.tracer is not None and self.tracer.enabled:
            span = self.tracer.start(
                DURABILITY_TRACE_ID,
                "durability.restore",
                cls=tracker.cls,
                kind="pit",
                generation=generation,
            )
        index, folded = yield from self._index_at(tracker, entry)
        docs = yield from self._fetch_indexed_docs(tracker, index)
        dht = runtime.dht
        purged = 0
        for key in dht.scan_ids():
            if key not in index:
                yield dht.purge(key)
                purged += 1
        for key in sorted(docs):
            dht.seed(docs[key], persist=True)
        tracker.reset_index(index, base=generation, delta_entries=folded)
        self._reset_epochs(tracker, docs)
        tracker.dirty.clear()
        tracker.tombstones.clear()
        tracker.commits.clear()
        tracker.restores += 1
        summary = {
            "class": tracker.cls,
            "generation": generation,
            "cut_time": entry["cut_time"],
            "restored": len(docs),
            "purged": purged,
        }
        if self.events is not None:
            self.events.record("durability.restore", kind="pit", **summary)
        if self.tracer is not None:
            self.tracer.finish(span, restored=len(docs), purged=purged)
        return summary

    def restore_object(
        self,
        runtime: "ClassRuntime",
        tracker: ClassDurabilityState,
        object_id: str,
        at: float | None = None,
    ) -> Generator:
        """Roll one object back to its state at the latest cut at or
        before ``at``.  The manifest at that point is authoritative: an
        object absent from it was not alive then, which is a
        :class:`SnapshotNotFoundError`."""
        entry = self._generation_at(tracker, at)
        generation = entry["generation"]
        store = tracker.object_store
        index, _ = yield from self._index_at(tracker, entry)
        ref = index.get(object_id)
        if ref is None:
            raise SnapshotNotFoundError(
                f"object {object_id!r} of class {tracker.cls!r} is not in "
                f"snapshot generation {generation} (cut at {entry['cut_time']})"
            )
        source_gen, version = ref
        blob = yield store.get_timed(
            tracker.bucket, data_key(tracker.cls, source_gen)
        )
        doc = json.loads(blob.data).get(object_id)
        if doc is None:
            raise SnapshotNotFoundError(
                f"object {object_id!r} missing from generation {source_gen} "
                f"data blob of class {tracker.cls!r} (garbage-collected?)"
            )
        runtime.dht.seed(doc, persist=True)
        self._reset_epochs(tracker, {object_id: doc})
        tracker.reindex({object_id: ref}, (), at=tracker.next_generation)
        # Dirty, so the next cut's manifest carries the entry: the index
        # may differ from the manifests only at dirty and tombstoned keys.
        tracker.dirty[object_id] = tracker.seq
        tracker.tombstones.pop(object_id, None)
        tracker.commits.pop(object_id, None)
        tracker.restores += 1
        summary = {
            "class": tracker.cls,
            "object": object_id,
            "generation": generation,
            "version": version,
            "cut_time": entry["cut_time"],
        }
        if self.events is not None:
            self.events.record("durability.restore", kind="pit-object", **summary)
        return summary

    # -- crash recovery -----------------------------------------------------

    def recover(
        self,
        runtime: "ClassRuntime",
        tracker: ClassDurabilityState,
        node: str,
        crashed_at: float,
    ) -> Generator:
        """Reload state lost with ``node`` and measure RPO/RTO.

        Per candidate object the best durable source wins: the live
        replica (survived in another node's memory), the flushed store
        copy, the snapshot index, or — for strong classes — the commit
        epoch.  A durable copy is only installed over a *lower* live
        version, so recovery can never roll back a write that landed
        after the crash."""
        span = None
        if self.tracer is not None and self.tracer.enabled:
            span = self.tracer.start(
                DURABILITY_TRACE_ID,
                "durability.restore",
                cls=tracker.cls,
                kind="recovery",
                node=node,
            )
        dht = runtime.dht
        store = tracker.object_store
        candidates = sorted(
            set(tracker.index)
            | {key for key, entries in tracker.commits.items() if entries}
            | set(tracker.epoch_versions)
        )
        best: dict[str, tuple[int, dict[str, Any] | None]] = {}
        needed_gens: set[int] = set()
        needed_epochs: list[str] = []
        for key in candidates:
            live_version = _doc_version(dht.peek(key))
            store_doc = None
            if dht.store is not None and dht.model.persistent:
                store_doc = dht.store.get_sync(dht.collection, key)
            store_version = _doc_version(store_doc)
            if store_version > live_version:
                best[key] = (store_version, store_doc)
            else:
                best[key] = (live_version, None)
            snap_ref = tracker.index.get(key)
            if snap_ref is not None and snap_ref[1] > best[key][0]:
                needed_gens.add(snap_ref[0])
            epoch_version = tracker.epoch_versions.get(key, -1)
            if epoch_version > best[key][0] and (
                snap_ref is None or epoch_version > snap_ref[1]
            ):
                needed_epochs.append(key)
        # Timed reads: each referenced generation blob once, plus any
        # commit epochs that are newer than everything else.
        for generation in sorted(needed_gens):
            blob = yield store.get_timed(
                tracker.bucket, data_key(tracker.cls, generation)
            )
            for key, doc in json.loads(blob.data).items():
                ref = tracker.index.get(key)
                if ref is None or ref[0] != generation:
                    continue
                if key in best and ref[1] > best[key][0]:
                    best[key] = (ref[1], doc)
        for key in needed_epochs:
            try:
                obj = yield store.get_timed(
                    tracker.bucket, epoch_key(tracker.cls, key)
                )
            except (KeyNotFoundError, BucketNotFoundError):
                continue
            doc = json.loads(obj.data)
            version = _doc_version(doc)
            if version > best[key][0]:
                best[key] = (version, doc)
        restored = 0
        for key in candidates:
            version, doc = best[key]
            if doc is not None and version > _doc_version(dht.peek(key)):
                dht.seed(doc, persist=False)
                tracker.dirty.setdefault(key, tracker.seq)
                restored += 1
        # Replay the commit history up to the crash point: anything the
        # durable sources could not reach is lost and defines the RPO.
        lost_writes = 0
        replayed = 0
        earliest_lost: float | None = None
        for key in candidates:
            recovered_version = max(best[key][0], _doc_version(dht.peek(key)))
            snap_ref = tracker.index.get(key)
            snap_version = snap_ref[1] if snap_ref is not None else -1
            entries = tracker.commit_history(key)
            kept: list[tuple[float, int]] = []
            for at, version in entries:
                if at <= crashed_at and version > recovered_version:
                    lost_writes += 1
                    if earliest_lost is None or at < earliest_lost:
                        earliest_lost = at
                    continue  # permanently gone; drop from the side table
                if at <= crashed_at and snap_version < version <= recovered_version:
                    replayed += 1
                kept.append((at, version))
            if key in tracker.commits:
                if kept:
                    tracker.commits[key] = kept
                else:
                    tracker.commits.pop(key, None)
        rpo_s = crashed_at - earliest_lost if earliest_lost is not None else 0.0
        # RTO: the first successful data-plane read after reinstall.
        probe_key = next((key for key in candidates if dht.peek(key) is not None), None)
        if probe_key is not None:
            yield dht.get(probe_key, caller=dht.nodes[0])
        rto_s = self.env.now - crashed_at
        tracker.recoveries += 1
        tracker.last_recovery = {
            "node": node,
            "crashed_at": crashed_at,
            "completed_at": self.env.now,
            "rpo_s": rpo_s,
            "rto_s": rto_s,
            "lost_writes": lost_writes,
            "replayed_commits": replayed,
            "restored_docs": restored,
        }
        if self.monitoring is not None:
            registry = self.monitoring.registry
            registry.histogram(f"durability.rpo_s.{tracker.cls}").record(rpo_s)
            registry.histogram(f"durability.rto_s.{tracker.cls}").record(rto_s)
        if self.events is not None:
            self.events.record(
                "durability.restore",
                kind="recovery",
                cls=tracker.cls,
                node=node,
                rpo_s=rpo_s,
                rto_s=rto_s,
                lost_writes=lost_writes,
                restored_docs=restored,
            )
        if self.tracer is not None:
            self.tracer.finish(
                span, rpo_s=rpo_s, rto_s=rto_s, restored=restored, lost=lost_writes
            )
        return dict(tracker.last_recovery)

    # -- helpers ------------------------------------------------------------

    def _generation_at(
        self, tracker: ClassDurabilityState, at: float | None
    ) -> dict[str, Any]:
        candidates = [
            entry
            for entry in tracker.generations
            if entry["generation"] >= tracker.restorable_from
            and (at is None or entry["cut_time"] <= at)
        ]
        if not candidates:
            when = "any point" if at is None else f"t={at}"
            raise SnapshotNotFoundError(
                f"class {tracker.cls!r} has no snapshot generation at {when} "
                f"({len(tracker.generations)} generation(s) retained)"
            )
        return candidates[-1]

    def _index_at(
        self, tracker: ClassDurabilityState, entry: dict[str, Any]
    ) -> Generator:
        """Rebuild the index as of ``entry``'s cut: its nearest full
        checkpoint (a manifest with no ``base`` — a format-2 checkpoint,
        or any format-1 manifest) with each delta up to it folded in.
        The chain's manifests are read concurrently, so a restore waits
        for one modelled read however long the chain.  Resolves to the
        index and how many entries the folded deltas held."""
        store = tracker.object_store
        blobs = yield all_of(
            self.env,
            [
                store.get_timed(
                    tracker.bucket, manifest_key(tracker.cls, link["generation"])
                )
                for link in tracker.chain(entry)
            ],
        )
        index: dict[str, tuple[int, int]] = {}
        folded = 0
        for blob in blobs:
            manifest = json.loads(blob.data)
            entries = {key: (ref[0], ref[1]) for key, ref in manifest["index"].items()}
            if manifest.get("base") is None:
                index, folded = entries, 0
            else:
                for key in manifest["tombstones"]:
                    index.pop(key, None)
                index.update(entries)
                folded += len(entries) + len(manifest["tombstones"])
        return index, folded

    def _fetch_indexed_docs(
        self, tracker: ClassDurabilityState, index: dict[str, tuple[int, int]]
    ) -> Generator:
        """Timed reads of every generation blob the index references,
        returning the docs for exactly the indexed keys."""
        docs: dict[str, dict[str, Any]] = {}
        for generation in sorted({ref[0] for ref in index.values()}):
            try:
                blob = yield tracker.object_store.get_timed(
                    tracker.bucket, data_key(tracker.cls, generation)
                )
            except (KeyNotFoundError, BucketNotFoundError) as exc:
                raise SnapshotNotFoundError(
                    f"generation {generation} of class {tracker.cls!r} is "
                    f"referenced by the restore manifest but missing from the "
                    f"store"
                ) from exc
            for key, doc in json.loads(blob.data).items():
                if index.get(key, (None,))[0] == generation:
                    docs[key] = doc
        return docs

    def _reset_epochs(
        self, tracker: ClassDurabilityState, docs: dict[str, dict[str, Any]]
    ) -> None:
        """After a rollback, commit epochs must match the restored state
        or the next recovery would replay the discarded future."""
        if tracker.policy.mode != MODE_ON_COMMIT:
            return
        for key, doc in docs.items():
            payload = json.dumps(doc, sort_keys=True, default=str).encode()
            tracker.object_store.put_object(
                tracker.bucket, epoch_key(tracker.cls, key), payload, "application/json"
            )
            tracker.epoch_versions[key] = _doc_version(doc)
        for key in list(tracker.epoch_versions):
            if key not in docs and key not in tracker.index:
                try:
                    tracker.object_store.delete_object(
                        tracker.bucket, epoch_key(tracker.cls, key)
                    )
                except (KeyNotFoundError, BucketNotFoundError):
                    pass
                tracker.epoch_versions.pop(key, None)
