"""Write-behind batching from the in-memory tier to the document store.

Updates enqueue instantly (the in-memory tier has already accepted
them); a background flusher groups them into batches and writes each
batch as a single DB operation.  Two effects raise the effective DB
ceiling, both from the paper's §V explanation of Fig. 3:

* **batching** — the DB's fixed per-operation cost is amortized over
  ``batch_size`` documents;
* **coalescing** — multiple updates to the same object within one flush
  window collapse into the latest version (last-write-wins), so hot
  objects cost one DB write per window regardless of update rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.errors import StorageError
from repro.monitoring.tracing import Tracer
from repro.sim.kernel import Environment, Process
from repro.sim.resources import Gate
from repro.storage.kv import DocumentStore

#: All write-behind flush spans share one synthetic trace: flushes are
#: background work not attributable to any single request.
FLUSH_TRACE_ID = "write-behind"
#: Delay before retrying a failed flush (store write errors); doubles
#: per consecutive failure up to the cap.  A batch is retried
#: indefinitely — accepted writes are never dropped on transient store
#: faults — so durability is preserved across bounded fault windows.
RETRY_BACKOFF_S = 0.05
MAX_RETRY_BACKOFF_S = 2.0

__all__ = ["WriteBehindConfig", "WriteBehindQueue"]


@dataclass(frozen=True)
class WriteBehindConfig:
    """Tuning knobs for the flusher (the ABL-BATCH ablation sweeps these).

    Attributes:
        batch_size: maximum documents per DB write operation.
        linger_s: how long the flusher waits after waking to let a batch
            accumulate before writing.  Zero flushes eagerly.
        max_pending: buffered-document bound per queue.  When the DB
            cannot keep up, enqueues *block* until the flusher drains —
            the backpressure that ties the in-memory tier's accept rate
            to the database's sustainable write rate.  Updates that
            coalesce into an already-buffered document never block.
    """

    batch_size: int = 100
    linger_s: float = 0.02
    max_pending: int = 2000

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise StorageError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.linger_s < 0:
            raise StorageError(f"linger_s must be >= 0, got {self.linger_s}")
        if self.max_pending < self.batch_size:
            raise StorageError(
                f"max_pending ({self.max_pending}) must be >= batch_size "
                f"({self.batch_size})"
            )


class WriteBehindQueue:
    """A coalescing buffer with a background flusher process."""

    def __init__(
        self,
        env: Environment,
        store: DocumentStore,
        collection: str,
        config: WriteBehindConfig | None = None,
        name: str = "wb",
        tracer: Tracer | None = None,
    ) -> None:
        self.env = env
        self.store = store
        self.collection = collection
        self.config = config or WriteBehindConfig()
        self.name = name
        self.tracer = tracer
        self._buffer: dict[str, dict[str, Any]] = {}
        #: The batch currently popped by the flusher and not yet durable
        #: (in the store write or the retry-backoff loop).  Tracked so a
        #: node crash counts it in the loss report and a delete can
        #: discard it before a retry resurrects the document.
        self._inflight: list[dict[str, Any]] | None = None
        self._arrival = Gate(env)
        self._space = Gate(env)
        #: Fired by the flusher whenever buffer and in-flight batch are
        #: both empty — what :meth:`drain` waits on.
        self._idle = Gate(env)
        self._drain_requested = 0
        self.enqueued = 0
        self.coalesced = 0
        self.flush_ops = 0
        self.docs_flushed = 0
        self.blocked_enqueues = 0
        self.flush_failures = 0
        self._running = True
        self._flusher = env.process(self._run())

    @property
    def pending(self) -> int:
        """Documents currently buffered (per distinct object)."""
        return len(self._buffer)

    def enqueue(self, doc: dict[str, Any]) -> None:
        """Buffer one updated document for eventual persistence.

        Non-blocking variant: use :meth:`enqueue_blocking` on hot write
        paths so backpressure applies.
        """
        key = doc.get("id")
        if not key:
            raise StorageError("write-behind document without 'id'")
        self.enqueued += 1
        if key in self._buffer:
            self.coalesced += 1
        was_empty = not self._buffer
        self._buffer[key] = doc
        if was_empty:
            self._arrival.fire()

    def has_room(self, key: str) -> bool:
        """Whether :meth:`enqueue_blocking` of ``key`` would go through
        without waiting for space: a coalescing update (same id already
        buffered) always does."""
        return key in self._buffer or len(self._buffer) < self.config.max_pending

    def enqueue_blocking(self, doc: dict[str, Any]) -> Generator:
        """Buffer a document, waiting while the buffer is at capacity.

        A coalescing update (same id already buffered) never waits.
        """
        key = doc.get("id")
        if not key:
            raise StorageError("write-behind document without 'id'")
        while not self.has_room(key):
            self.blocked_enqueues += 1
            yield self._space.wait()
        self.enqueue(doc)

    def discard(self, key: str) -> bool:
        """Drop a buffered update (object deletion); True if present.

        Also removes the document from the batch the flusher currently
        holds (in place, so a pending retry observes the removal) — a
        retried batch must not resurrect a deleted object either.
        """
        found = False
        if key in self._buffer:
            del self._buffer[key]
            self._space.fire()
            found = True
        if self._inflight:
            kept = [doc for doc in self._inflight if doc.get("id") != key]
            if len(kept) != len(self._inflight):
                self._inflight[:] = kept
                found = True
        return found

    def _take_batch(self) -> list[dict[str, Any]]:
        keys = list(self._buffer)[: self.config.batch_size]
        return [self._buffer.pop(k) for k in keys]

    def stop(self) -> dict[str, int]:
        """Stop the flusher (node failure); buffered documents are LOST.

        Returns ``{"lost": n}`` — the durability gap a crash opens when
        write-behind batching is in play.  The count covers both the
        buffer and the batch the flusher currently holds in its flush /
        retry loop: under store write faults that batch never commits,
        so including it makes the loss report exact.  (In the rare race
        where the crash lands while a *healthy* store write is mid-air,
        the batch still commits and the report is conservative by one
        batch.)
        """
        self._running = False
        lost = len(self._buffer) + (len(self._inflight) if self._inflight else 0)
        self._buffer.clear()
        self._inflight = None
        self._arrival.fire()
        self._idle.fire()
        return {"lost": lost}

    def _run(self) -> Generator:
        while self._running:
            if not self._buffer:
                if self._inflight is None:
                    self._idle.fire()
                yield self._arrival.wait()
                if not self._running:
                    return
                continue
            if (
                len(self._buffer) < self.config.batch_size
                and self.config.linger_s > 0
                and not self._drain_requested
            ):
                yield self.env.timeout(self.config.linger_s)
            batch = self._take_batch()
            if batch:
                yield from self._flush(batch)

    def drain(self) -> Process:
        """Flush everything currently buffered; resolves when durable.

        Routed through the flusher process rather than writing directly:
        a concurrent direct write could race a batch the flusher popped
        before a store fault, letting the retried (older) batch overwrite
        the newer version at the store.  With a single writer, batches
        always land in pop order and last-write-wins is preserved.  A
        drain that arrives while the flusher lingers waits that linger
        out (at most ``linger_s``) before flushing proceeds.
        """
        return self.env.process(self._drain())

    def _drain(self) -> Generator:
        while self._running and (self._buffer or self._inflight is not None):
            self._drain_requested += 1
            self._arrival.fire()
            try:
                yield self._idle.wait()
            finally:
                self._drain_requested -= 1

    def _flush(self, batch: list[dict[str, Any]]) -> Generator:
        """Write one batch to the store, traced when tracing is on.

        Store write faults do not lose the batch: the flush is retried
        in place with capped exponential backoff until the store
        recovers (or the queue is stopped by a node crash, which counts
        the batch as lost in :meth:`stop`'s report).
        """
        self._inflight = batch
        backoff = RETRY_BACKOFF_S
        while True:
            if not self._running:
                return
            if not batch:
                # Everything in the batch was discarded (deleted) while
                # we were retrying — nothing left to persist.
                self._inflight = None
                return
            span = None
            if self.tracer is not None and self.tracer.enabled:
                span = self.tracer.start(
                    FLUSH_TRACE_ID, "wb.flush", queue=self.name, docs=len(batch)
                )
            try:
                yield self.store.land(self.collection, batch)
            except StorageError as exc:
                self.flush_failures += 1
                if span is not None:
                    self.tracer.finish(span, ok=False, error=str(exc))
                if not self._running:
                    return
                yield self.env.timeout(backoff)
                backoff = min(backoff * 2, MAX_RETRY_BACKOFF_S)
                continue
            if span is not None:
                self.tracer.finish(span)
            if not self._running:
                # Crash raced a successful commit: the data is durable,
                # but the node is gone — skip post-flush bookkeeping.
                return
            self._inflight = None
            self.flush_ops += 1
            self.docs_flushed += len(batch)
            self._space.fire()
            return
