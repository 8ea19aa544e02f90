"""SQLite engine: durable per-class tables with keySpec secondary indexes.

Each collection becomes one table::

    CREATE TABLE "objects.Order" (
        id  TEXT PRIMARY KEY,
        doc TEXT NOT NULL,          -- full document, canonical JSON
        "k_total" REAL,             -- one typed column per declared key
        "k_region" TEXT, ...
    )
    CREATE INDEX "ix_objects.Order_total" ON "objects.Order" ("k_total")

The ``doc`` column is the source of truth; the ``k_*`` columns are a
denormalized projection of ``doc["state"]`` over the keys the class
declared in its ``keySpecs``, maintained on every upsert, purely so the
query layer can compile predicates to indexed SQL.  Queries whose keys
are all declared compile to ``WHERE``/``ORDER BY`` over those columns
(range, equality, and prefix-as-range all index-sargable); anything
else falls back to the shared reference evaluator over a full table
scan, so semantics never depend on the plan.

Durability: WAL journal with ``synchronous=NORMAL`` — a ``kill -9``'d
process loses nothing that was committed, which is exactly the contract
the durability plane's write-through needs (RPO 0 for acknowledged
strong-persistence commits).
"""

from __future__ import annotations

import json
import sqlite3
from typing import Any, Mapping

from repro.errors import StorageError
from repro.model.types import DataType
from repro.storage.backends.base import StoreBackend
from repro.storage.query import (
    Predicate,
    Query,
    QueryResult,
    encode_cursor,
    evaluate_query,
)

__all__ = ["SqliteBackend"]

#: DataType -> SQLite column affinity.  BOOL is stored as 0/1; JSON as
#: canonical text (indexable for equality/prefix).
_AFFINITY = {
    DataType.INT: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.STR: "TEXT",
    DataType.BOOL: "INTEGER",
    DataType.JSON: "TEXT",
}

_SQL_OPS = {"eq": "=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}

#: Sorts after every other character in a TEXT column, closing the
#: half-open range that implements prefix matching.
_PREFIX_CEILING = "￿"


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


def _dump_doc(doc: Mapping[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, default=str)


class SqliteBackend(StoreBackend):
    """Durable engine over a single SQLite database."""

    name = "sqlite"
    durable = True

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self._conn = sqlite3.connect(path or ":memory:", check_same_thread=False)
        self._conn.isolation_level = None  # explicit transactions only
        if path:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._schemas: dict[str, dict[str, DataType]] = {}
        #: collection -> its upsert statement, built from the schema on
        #: first use and dropped when the schema changes.
        self._upserts: dict[str, str] = {}
        self._load_existing_schemas()

    # -- schema ------------------------------------------------------------

    def _load_existing_schemas(self) -> None:
        """Recover collection schemas from a pre-existing database file,
        so a restarted process can query what a dead one indexed."""
        tables = self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        ).fetchall()
        for (table,) in tables:
            columns = self._conn.execute(
                f"PRAGMA table_info({_quote(table)})"
            ).fetchall()
            names = [row[1] for row in columns]
            if "id" not in names or "doc" not in names:
                continue
            schema: dict[str, DataType] = {}
            for row in columns:
                column, declared = row[1], (row[2] or "").upper()
                if not column.startswith("k_"):
                    continue
                key = column[2:]
                if declared == "REAL":
                    schema[key] = DataType.FLOAT
                elif declared == "INTEGER":
                    # INT and BOOL share affinity; INT is the safe
                    # recovery guess and compares identically.
                    schema[key] = DataType.INT
                else:
                    schema[key] = DataType.STR
            self._schemas[table] = schema

    def _ensure_table(self, collection: str) -> None:
        if collection in self._schemas:
            return
        self._conn.execute(
            f"CREATE TABLE IF NOT EXISTS {_quote(collection)} "
            "(id TEXT PRIMARY KEY, doc TEXT NOT NULL)"
        )
        self._schemas.setdefault(collection, {})

    def register_schema(
        self, collection: str, schema: Mapping[str, DataType]
    ) -> None:
        """Create the table, key columns, and secondary indexes.

        Idempotent and additive: keys added by a class update get their
        column via ``ALTER TABLE``, a Python backfill from the stored
        documents, and a fresh index.
        """
        self._ensure_table(collection)
        self._upserts.pop(collection, None)
        known = self._schemas[collection]
        existing_columns = {
            row[1]
            for row in self._conn.execute(
                f"PRAGMA table_info({_quote(collection)})"
            ).fetchall()
        }
        new_keys: list[str] = []
        for key, dtype in schema.items():
            if dtype not in _AFFINITY:
                continue  # FILE keys are not indexable
            column = f"k_{key}"
            if column not in existing_columns:
                self._conn.execute(
                    f"ALTER TABLE {_quote(collection)} "
                    f"ADD COLUMN {_quote(column)} {_AFFINITY[dtype]}"
                )
                new_keys.append(key)
            known[key] = dtype
            # Composite (key, id): one index serves the range filter,
            # the ORDER BY, and the keyset-cursor tiebreak without a
            # temp sort.
            self._conn.execute(
                f"CREATE INDEX IF NOT EXISTS {_quote(f'ix_{collection}_{key}')} "
                f"ON {_quote(collection)} ({_quote(column)}, id)"
            )
        if new_keys:
            self._backfill(collection, new_keys)

    def _backfill(self, collection: str, keys: list[str]) -> None:
        rows = self._conn.execute(
            f"SELECT id, doc FROM {_quote(collection)}"
        ).fetchall()
        if not rows:
            return
        assignments = ", ".join(f"{_quote(f'k_{key}')} = ?" for key in keys)
        self._conn.execute("BEGIN")
        try:
            for object_id, raw in rows:
                doc = json.loads(raw)
                values = [
                    self._column_value(collection, key, (doc.get("state") or {}).get(key))
                    for key in keys
                ]
                self._conn.execute(
                    f"UPDATE {_quote(collection)} SET {assignments} WHERE id = ?",
                    [*values, object_id],
                )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    def _column_value(self, collection: str, key: str, value: Any) -> Any:
        if value is None:
            return None
        dtype = self._schemas.get(collection, {}).get(key)
        if dtype is DataType.BOOL:
            return int(bool(value))
        if dtype is DataType.JSON and not isinstance(value, str):
            return json.dumps(value, sort_keys=True, default=str)
        return value

    # -- documents ---------------------------------------------------------

    def _upsert_sql(self, collection: str) -> str:
        """``INSERT … ON CONFLICT(id) DO UPDATE``: unlike ``INSERT OR
        REPLACE`` (delete + insert), an update leaves the index entries
        of key columns whose value did not change alone."""
        sql = self._upserts.get(collection)
        if sql is None:
            columns = ["doc", *(f"k_{key}" for key in self._schemas[collection])]
            names = ", ".join(_quote(column) for column in ["id", *columns])
            updates = ", ".join(
                f"{_quote(column)} = excluded.{_quote(column)}" for column in columns
            )
            sql = self._upserts[collection] = (
                f"INSERT INTO {_quote(collection)} ({names}) "
                f"VALUES ({', '.join('?' * (len(columns) + 1))}) "
                f"ON CONFLICT(id) DO UPDATE SET {updates}"
            )
        return sql

    def _row_values(self, collection: str, doc: Mapping[str, Any]) -> list[Any]:
        state = doc.get("state") or {}
        values: list[Any] = [doc["id"], _dump_doc(doc)]
        for key in self._schemas[collection]:
            values.append(self._column_value(collection, key, state.get(key)))
        return values

    def put(self, collection: str, doc: dict[str, Any]) -> None:
        self.put_many(collection, [doc])

    def put_many(self, collection: str, docs: list[dict[str, Any]]) -> None:
        if not docs:
            return
        self._ensure_table(collection)
        sql = self._upsert_sql(collection)
        self._conn.execute("BEGIN")
        try:
            for doc in docs:
                self._conn.execute(sql, self._row_values(collection, doc))
            self._conn.execute("COMMIT")
        except sqlite3.Error as exc:
            self._conn.execute("ROLLBACK")
            raise StorageError(f"sqlite write to {collection!r} failed: {exc}") from exc

    def get(self, collection: str, key: str) -> dict[str, Any] | None:
        if collection not in self._schemas:
            return None
        row = self._conn.execute(
            f"SELECT doc FROM {_quote(collection)} WHERE id = ?", (key,)
        ).fetchone()
        return json.loads(row[0]) if row else None

    def delete(self, collection: str, key: str) -> None:
        if collection not in self._schemas:
            return
        self._conn.execute(
            f"DELETE FROM {_quote(collection)} WHERE id = ?", (key,)
        )

    def keys(self, collection: str) -> list[str]:
        if collection not in self._schemas:
            return []
        rows = self._conn.execute(
            f"SELECT id FROM {_quote(collection)} ORDER BY id"
        ).fetchall()
        return [row[0] for row in rows]

    def count(self, collection: str) -> int:
        if collection not in self._schemas:
            return 0
        row = self._conn.execute(
            f"SELECT COUNT(*) FROM {_quote(collection)}"
        ).fetchone()
        return int(row[0])

    def close(self) -> None:
        self._conn.close()

    # -- queries -----------------------------------------------------------

    def query(self, collection: str, query: Query) -> QueryResult:
        if collection not in self._schemas:
            return QueryResult(docs=[], scanned=0, plan="empty-collection")
        schema = self._schemas[collection]
        indexed = all(pred.key in schema for pred in query.where) and (
            query.order_by is None or query.order_by in schema
        )
        if not indexed:
            return self._scan_query(collection, query)
        return self._indexed_query(collection, query)

    def _scan_query(self, collection: str, query: Query) -> QueryResult:
        """Fallback for keys the engine has no columns for: load every
        document and run the shared reference evaluator."""
        rows = self._conn.execute(
            f"SELECT doc FROM {_quote(collection)}"
        ).fetchall()
        docs = [json.loads(row[0]) for row in rows]
        return evaluate_query(docs, query, plan="table-scan")

    def _compile_predicate(self, pred: Predicate, collection: str) -> tuple[str, list[Any]]:
        column = _quote(f"k_{pred.key}")
        value = self._column_value(collection, pred.key, pred.value)
        if pred.op == "prefix":
            return (
                f"({column} >= ? AND {column} < ?)",
                [value, str(value) + _PREFIX_CEILING],
            )
        return f"{column} {_SQL_OPS[pred.op]} ?", [value]

    def _indexed_query(self, collection: str, query: Query) -> QueryResult:
        conditions: list[str] = []
        params: list[Any] = []
        for pred in query.where:
            sql, values = self._compile_predicate(pred, collection)
            conditions.append(sql)
            params.extend(values)
        order_sql = "id ASC"
        if query.order_by is not None:
            order_column = _quote(f"k_{query.order_by}")
            conditions.append(f"{order_column} IS NOT NULL")
            direction = "DESC" if query.descending else "ASC"
            order_sql = f"{order_column} {direction}, id {direction}"
        where_sql = " AND ".join(conditions) if conditions else "1"

        # What the query is billed for: rows the filter must examine,
        # independent of pagination position or page size.
        scanned = int(
            self._conn.execute(
                f"SELECT COUNT(*) FROM {_quote(collection)} WHERE {where_sql}",
                params,
            ).fetchone()[0]
        )

        page_conditions = list(conditions)
        page_params = list(params)
        if query.cursor is not None:
            sql, values = self._cursor_condition(query)
            page_conditions.append(sql)
            page_params.extend(values)
        page_where = " AND ".join(page_conditions) if page_conditions else "1"
        select = (
            f"SELECT doc FROM {_quote(collection)} "
            f"WHERE {page_where} ORDER BY {order_sql}"
        )
        if query.limit is not None:
            # One row past the page tells us whether a next page exists.
            select += f" LIMIT {query.limit + 1}"

        plan_rows = self._conn.execute(
            f"EXPLAIN QUERY PLAN {select}", page_params
        ).fetchall()
        plan = "; ".join(str(row[-1]) for row in plan_rows)
        # Only our "ix_*" secondary indexes count — a scan that happens
        # to walk the PK autoindex is still a scan.
        index_used = "INDEX IX_" in plan.upper()

        rows = self._conn.execute(select, page_params).fetchall()
        docs = [json.loads(row[0]) for row in rows]
        next_cursor = None
        if query.limit is not None and len(docs) > query.limit:
            docs = docs[: query.limit]
            next_cursor = encode_cursor(docs[-1], query.order_by)
        return QueryResult(
            docs=docs,
            scanned=scanned,
            index_used=index_used,
            plan=plan,
            next_cursor=next_cursor,
        )

    def _cursor_condition(self, query: Query) -> tuple[str, list[Any]]:
        if query.order_by is None:
            return "id > ?", [query.cursor[0]]
        order_column = _quote(f"k_{query.order_by}")
        cursor_value, cursor_id = query.cursor
        comparator = "<" if query.descending else ">"
        return (
            f"({order_column} {comparator} ? OR "
            f"({order_column} = ? AND id {comparator} ?))",
            [cursor_value, cursor_value, cursor_id],
        )
