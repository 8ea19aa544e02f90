"""Persistent document store — the shared database substrate.

Models the external database every system in Fig. 3 ultimately writes
to.  Capacity is expressed in abstract *work units* served at a fixed
aggregate rate: a write of ``k`` documents costs ``op_cost + k *
doc_cost`` units.  The fixed per-operation cost is what makes batched
writes cheaper per document — the mechanism the paper credits for
Oparaca's higher throughput ceiling ("consolidate data for batch write
operations", §V).

All mutations are applied when their simulated service completes, so a
read issued after a write's completion event observes it.

The store owns *when* storage work completes — work units, the rate
limiter, chaos fault injection — and the copies at its edge
(:mod:`repro.storage.document`).  *Where* documents
live is delegated to a pluggable :class:`~repro.storage.backends.base.
StoreBackend`: the default dict engine (byte-identical to the
historical in-memory store) or SQLite (durable files with keySpec
secondary indexes).  Because faults are raised here, after units are
consumed but before the backend is touched, fault semantics are
uniform across engines by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Mapping

from repro.errors import StorageError
from repro.sim.kernel import Environment, Event, Process
from repro.sim.resources import RateLimiter
from repro.storage.backends.memory import DictBackend
from repro.storage.document import copy_doc

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.types import DataType
    from repro.storage.backends.base import StoreBackend
    from repro.storage.query import Query

__all__ = ["DbModel", "DocumentStore"]


@dataclass(frozen=True)
class DbModel:
    """Service model of the document store.

    Attributes:
        capacity_units_per_s: aggregate work-unit service rate.  This is
            the cluster-wide ceiling that produces the Knative plateau
            in Fig. 3; it deliberately does *not* grow with worker VMs
            (the DB is a separate, fixed-size service).
        op_cost: fixed units per operation (round trip, commit, index).
        doc_cost: units per document written.
        read_cost: units per document read.
    """

    capacity_units_per_s: float = 5000.0
    op_cost: float = 4.0
    doc_cost: float = 1.0
    read_cost: float = 1.0

    def write_units(self, docs: int) -> float:
        return self.op_cost + docs * self.doc_cost

    def read_units(self, docs: int = 1) -> float:
        return self.op_cost + docs * self.read_cost


class DocumentStore:
    """A collection-oriented document database with a throughput ceiling."""

    def __init__(
        self,
        env: Environment,
        model: DbModel | None = None,
        backend: "StoreBackend | None" = None,
    ) -> None:
        self.env = env
        self.model = model or DbModel()
        self.backend = backend if backend is not None else DictBackend()
        self._limiter = RateLimiter(env, self.model.capacity_units_per_s)
        self._units_by_collection: dict[str, float] = {}
        self.write_ops = 0
        self.docs_written = 0
        self.read_ops = 0
        self.docs_read = 0
        self.multi_read_ops = 0
        self.query_ops = 0
        self.query_docs_scanned = 0
        # Chaos-plane write-fault injection; rate 0.0 = healthy (default).
        self._write_fault_rate = 0.0
        self._fault_rng: random.Random | None = None
        self.faulted_writes = 0

    @property
    def durable(self) -> bool:
        """True when the engine's documents survive process death."""
        return self.backend.durable

    def register_schema(
        self, collection: str, schema: "Mapping[str, DataType]"
    ) -> None:
        """Declare a collection's typed state keys so the engine can
        build secondary indexes over them (deploy-time hook)."""
        self.backend.register_schema(collection, schema)

    def close(self) -> None:
        """Release engine resources (connections, file handles)."""
        self.backend.close()

    # -- fault injection (chaos plane) -------------------------------------

    def set_write_fault(self, rate: float, rng: random.Random | None = None) -> None:
        """Make write operations fail with probability ``rate``.

        Failures surface as :class:`StorageError` *after* the operation
        has consumed its work units (the DB did the work, the commit
        failed) and before the engine is touched, so no engine observes
        a partially applied faulted batch.  With no ``rng``, any
        positive rate fails every write.
        """
        if not 0.0 <= rate <= 1.0:
            raise StorageError(f"write fault rate must be in [0, 1], got {rate}")
        self._write_fault_rate = rate
        self._fault_rng = rng

    def clear_write_fault(self) -> None:
        self._write_fault_rate = 0.0
        self._fault_rng = None

    def _maybe_fail_write(self, collection: str) -> None:
        if not self._write_fault_rate:
            return
        roll = self._fault_rng.random() if self._fault_rng is not None else 0.0
        if roll < self._write_fault_rate:
            self.faulted_writes += 1
            raise StorageError(f"injected write fault on collection {collection!r}")

    # -- timed operations (data plane) ------------------------------------

    def _charge(self, collection: str, units: float) -> Event:
        """Bill ``units`` to ``collection`` and queue them on the
        limiter; the event fires when the store has served them."""
        self._units_by_collection[collection] = (
            self._units_by_collection.get(collection, 0.0) + units
        )
        return self._limiter.acquire(units)

    def write(self, collection: str, docs: list[Mapping[str, Any]]) -> Process:
        """Durably write ``docs`` (upsert by ``id``).  Returns a process
        event that fires once the DB has committed the batch."""
        for doc in docs:
            if "id" not in doc:
                raise StorageError(f"document without 'id' in write to {collection!r}")
        copies = [copy_doc(d if type(d) is dict else dict(d)) for d in docs]
        return self.env.process(self._write(collection, copies))

    def land(self, collection: str, docs: list[dict[str, Any]]) -> Process:
        """Write a batch of the tier's own versions (the write-behind
        flush): billed and faulted like :meth:`write`, but the documents
        are not copied — the dict engine keeps the very version the DHT
        shares, which is never mutated in place, only replaced."""
        # A list of its own: a delete discards from the flusher's batch in
        # place, and the batch in the store's hands must not shrink.
        return self.env.process(self._write(collection, list(docs)))

    def _write(self, collection: str, docs: list[dict[str, Any]]) -> Generator:
        # An empty batch consumes no work units and must not count as an
        # operation either, or flush_ops-per-doc accounting is skewed.
        if not docs:
            return 0
        yield self._charge(collection, self.model.write_units(len(docs)))
        self._maybe_fail_write(collection)
        self.backend.put_many(collection, docs)
        self.write_ops += 1
        self.docs_written += len(docs)
        return len(docs)

    def write_through(self, collection: str, doc: dict[str, Any]) -> None:
        """Land one committed version in a durable engine *now* (the
        store write of a ``persistence: strong`` commit): faulted and
        billed like a one-document :meth:`write`, but the caller does not
        wait the units out — its modeled wait is the epoch write — and
        ``doc`` is not copied, the engine serialises it."""
        self._charge(collection, self.model.write_units(1))
        self._maybe_fail_write(collection)
        self.backend.put_many(collection, [doc])
        self.write_ops += 1
        self.docs_written += 1

    def read(self, collection: str, key: str) -> Process:
        """Read one document; the process resolves to the caller's own
        copy or ``None``."""
        return self.env.process(self._read(collection, key, copy=True))

    def load(self, collection: str, key: str) -> Process:
        """The DHT's miss read: like :meth:`read`, but resolves to the
        stored version itself, which the tier installs and never mutates."""
        return self.env.process(self._read(collection, key, copy=False))

    def _read(self, collection: str, key: str, copy: bool) -> Generator:
        yield self._charge(collection, self.model.read_units(1))
        self.read_ops += 1
        doc = self.backend.get(collection, key)
        if doc is not None:
            self.docs_read += 1
        return copy_doc(doc) if copy else doc

    def read_many(self, collection: str, keys: list[str]) -> Process:
        """Read a batch of documents as ONE operation (multi-get).

        Costs ``op_cost + k * read_cost`` work units — the read-side
        mirror of :meth:`~DbModel.write_units` batching — so ``k`` misses
        coalesced into one window amortize the fixed per-operation cost
        the same way the write-behind flusher does.  The process resolves
        to ``{key: doc}`` with absent keys mapped to ``None``.
        """
        return self.env.process(self._read_many(collection, list(keys), copy=True))

    def load_many(self, collection: str, keys: list[str]) -> Process:
        """The miss batcher's multi-get: like :meth:`read_many`, but
        resolves to the stored versions themselves."""
        return self.env.process(self._read_many(collection, list(keys), copy=False))

    def _read_many(self, collection: str, keys: list[str], copy: bool) -> Generator:
        if not keys:
            return {}
        yield self._charge(collection, self.model.read_units(len(keys)))
        self.read_ops += 1
        self.multi_read_ops += 1
        out: dict[str, Any] = {}
        for key in keys:
            doc = self.backend.get(collection, key)
            if doc is not None:
                self.docs_read += 1
            out[key] = copy_doc(doc) if copy else doc
        return out

    def delete(self, collection: str, key: str) -> Process:
        """Delete one document (no-op if absent)."""
        return self.env.process(self._delete(collection, key))

    def _delete(self, collection: str, key: str) -> Generator:
        yield self._charge(collection, self.model.write_units(1))
        self.write_ops += 1
        self.backend.delete(collection, key)

    def query(self, collection: str, query: "Query") -> Process:
        """Run a typed query; the process resolves to a
        :class:`~repro.storage.query.QueryResult`.

        Cost is two-phase and deterministic: the fixed ``op_cost`` is
        charged up front (the round trip), then ``scanned * read_cost``
        once the engine reports what the operation touched
        (:attr:`QueryResult.scanned`) — an indexed page is cheap, a
        full scan of a large collection is priced like the multi-get
        that it is.
        """
        return self.env.process(self._query(collection, query))

    def _query(self, collection: str, query: "Query") -> Generator:
        yield self._charge(collection, self.model.op_cost)
        result = self.backend.query(collection, query)
        scan_units = result.scanned * self.model.read_cost
        if scan_units > 0:
            yield self._charge(collection, scan_units)
        self.query_ops += 1
        self.query_docs_scanned += result.scanned
        result.docs = [copy_doc(doc) for doc in result.docs]
        return result

    # -- instant inspection (control plane / tests) ------------------------

    def get_sync(self, collection: str, key: str) -> dict[str, Any] | None:
        """Read without consuming DB capacity (tests and bookkeeping)."""
        return copy_doc(self.backend.get(collection, key))

    def put_sync(self, collection: str, doc: Mapping[str, Any]) -> None:
        """Seed a copy of a document without consuming DB capacity."""
        if "id" not in doc:
            raise StorageError("document without 'id'")
        self.backend.put(collection, copy_doc(doc if type(doc) is dict else dict(doc)))

    def units_for(self, collection: str) -> float:
        """Cumulative work units this collection has consumed (billing)."""
        return self._units_by_collection.get(collection, 0.0)

    def count(self, collection: str) -> int:
        return self.backend.count(collection)

    def keys(self, collection: str) -> list[str]:
        return self.backend.keys(collection)

    @property
    def backlog_seconds(self) -> float:
        """Current write-path backlog (queueing delay) in seconds."""
        return self._limiter.backlog_seconds

    def stats(self) -> dict[str, Any]:
        """Operation counts, the engine's name and the write backlog."""
        return {
            "backend": self.backend.name,
            "write_ops": self.write_ops,
            "docs_written": self.docs_written,
            "faulted_writes": self.faulted_writes,
            "read_ops": self.read_ops,
            "docs_read": self.docs_read,
            "multi_read_ops": self.multi_read_ops,
            "query_ops": self.query_ops,
            "query_docs_scanned": self.query_docs_scanned,
            "backlog_s": self.backlog_seconds,
        }

    def utilization(self, elapsed: float) -> float:
        return self._limiter.utilization(elapsed)
