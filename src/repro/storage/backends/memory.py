"""The default in-process dict engine.

This is the historical ``DocumentStore`` storage, extracted behind the
:class:`~repro.storage.backends.base.StoreBackend` protocol.  It stores
and returns document *references* — ``DocumentStore`` copies at its
public edge, while the DHT's flushes and miss loads share the version
kept here with resident memory (a version is never mutated in place).
Queries run the shared reference evaluator over a full scan; there are
no secondary indexes to maintain, so ``register_schema`` does nothing.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.model.types import DataType
from repro.storage.backends.base import StoreBackend
from repro.storage.query import Query, QueryResult, evaluate_query

__all__ = ["DictBackend"]


class DictBackend(StoreBackend):
    """Dict-of-dicts engine: fast, deterministic, ephemeral."""

    name = "dict"
    durable = False

    def __init__(self) -> None:
        self._collections: dict[str, dict[str, dict[str, Any]]] = {}

    def register_schema(
        self, collection: str, schema: Mapping[str, DataType]
    ) -> None:
        """No indexes to maintain, so nothing to declare."""

    def put(self, collection: str, doc: dict[str, Any]) -> None:
        self._collections.setdefault(collection, {})[doc["id"]] = doc

    def put_many(self, collection: str, docs: list[dict[str, Any]]) -> None:
        table = self._collections.setdefault(collection, {})
        for doc in docs:
            table[doc["id"]] = doc

    def get(self, collection: str, key: str) -> dict[str, Any] | None:
        return self._collections.get(collection, {}).get(key)

    def delete(self, collection: str, key: str) -> None:
        self._collections.get(collection, {}).pop(key, None)

    def keys(self, collection: str) -> list[str]:
        return sorted(self._collections.get(collection, {}))

    def count(self, collection: str) -> int:
        return len(self._collections.get(collection, {}))

    def query(self, collection: str, query: Query) -> QueryResult:
        docs = self._collections.get(collection, {}).values()
        return evaluate_query(docs, query, plan="dict-scan")
