"""Read-path batching from the in-memory tier to the document store.

The read-side counterpart of :mod:`repro.storage.write_behind`: every
DHT miss that has to hit the document store enqueues its key with the
batcher, which lingers briefly and issues ONE multi-get
(:meth:`DocumentStore.load_many`, priced ``op_cost + k * read_cost``)
per window.  The fixed per-operation cost is amortized over the window,
raising the effective DB *read* ceiling the same way the write-behind
flusher raises the write ceiling — which is what keeps the miss storm
after a node failure, rebalance, or cold-start chaos event from
saturating the store with individual reads.

Keys are deduplicated within a window: concurrent misses on the same
key share one slot of the multi-get and all waiters receive the same
result (fired through a per-key :class:`Gate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.errors import StorageError
from repro.sim.kernel import Environment
from repro.sim.resources import Gate
from repro.storage.kv import DocumentStore

__all__ = ["ReadBatchConfig", "ReadBatcher"]


@dataclass(frozen=True)
class ReadBatchConfig:
    """Tuning knobs for the miss-read batcher (swept by ABL-READPATH).

    Attributes:
        max_batch: maximum keys per multi-get operation.
        linger_s: how long the batcher waits after waking to let a
            window accumulate before issuing the multi-get.  Zero reads
            eagerly (still deduplicating concurrent same-key misses).
    """

    max_batch: int = 64
    linger_s: float = 0.002

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise StorageError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.linger_s < 0:
            raise StorageError(f"linger_s must be >= 0, got {self.linger_s}")


class ReadBatcher:
    """A deduplicating window over document-store point reads."""

    def __init__(
        self,
        env: Environment,
        store: DocumentStore,
        collection: str,
        config: ReadBatchConfig | None = None,
        name: str = "rb",
    ) -> None:
        self.env = env
        self.store = store
        self.collection = collection
        self.config = config or ReadBatchConfig()
        self.name = name
        #: key -> gate every waiter for that key parks on.
        self._pending: dict[str, Gate] = {}
        self._arrival = Gate(env)
        self.requested = 0
        self.deduplicated = 0
        self.batch_ops = 0
        self.keys_fetched = 0
        self._running = True
        self._runner = env.process(self._run())

    @property
    def pending(self) -> int:
        """Distinct keys waiting for the next multi-get window."""
        return len(self._pending)

    def read(self, key: str) -> Generator:
        """Fetch one document through the batcher (``yield from`` this).

        Returns the stored version itself (all waiters of one key share
        it, and a private copy is the *caller's* responsibility) or
        ``None`` when the store has no such document.
        """
        if not self._running:
            raise StorageError(f"read batcher {self.name!r} is stopped")
        self.requested += 1
        gate = self._pending.get(key)
        if gate is None:
            gate = Gate(self.env)
            was_empty = not self._pending
            self._pending[key] = gate
            if was_empty:
                self._arrival.fire()
        else:
            self.deduplicated += 1
        doc = yield gate.wait()
        return doc

    def stop(self) -> None:
        """Stop the window runner; pending waiters resolve to ``None``."""
        self._running = False
        pending, self._pending = self._pending, {}
        for gate in pending.values():
            gate.fire(None)
        self._arrival.fire()

    def _run(self) -> Generator:
        while self._running:
            if not self._pending:
                yield self._arrival.wait()
                if not self._running:
                    return
            if (
                len(self._pending) < self.config.max_batch
                and self.config.linger_s > 0
            ):
                yield self.env.timeout(self.config.linger_s)
            keys = list(self._pending)[: self.config.max_batch]
            if not keys:
                continue
            gates = [self._pending.pop(k) for k in keys]
            docs: dict[str, Any] = yield self.store.load_many(self.collection, keys)
            self.batch_ops += 1
            self.keys_fetched += len(keys)
            # Even when stopped mid-read, waiters of the in-flight window
            # are answered — the store already did the work.
            for key, gate in zip(keys, gates):
                gate.fire(docs.get(key))
