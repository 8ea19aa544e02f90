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

import functools
import json
import sqlite3
from typing import Any, Mapping

from repro.errors import StorageError
from repro.model.types import DataType
from repro.storage.backends.base import StoreBackend
from repro.storage.query import Query, QueryResult, encode_cursor, evaluate_query

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

#: A prefix is the half-open range it spans (its upper bound is added
#: where the predicate is compiled), so it is index-sargable too.
_SQL_OPS = {"eq": "=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=", "prefix": ">="}

#: Sorts after every other character in a TEXT column, closing the
#: half-open range that implements prefix matching.
_PREFIX_CEILING = "￿"

#: Page statements whose plan text is kept: a client chooses them.
_PLAN_MEMO_SIZE = 256


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


#: One encoder for every document written (``json.dumps`` with
#: non-default arguments builds one per call).
_dump_doc = json.JSONEncoder(sort_keys=True, default=str).encode


def _typed(method):
    """Engine failures (closed, locked or read-only database) leave the
    backend as :class:`StorageError`, like every other store failure."""

    @functools.wraps(method)
    def call(self, collection, *args):
        try:
            return method(self, collection, *args)
        except sqlite3.Error as exc:
            raise StorageError(
                f"sqlite {method.__name__} on {collection!r} failed: {exc}"
            ) from exc

    return call


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
        #: page statement text -> its ``EXPLAIN QUERY PLAN`` text; the
        #: plan is a function of the statement and the schema only.
        self._plans: dict[str, str] = {}
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
        self._plans.clear()
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
        rows = []
        for raw, object_id in self._conn.execute(f"SELECT doc, id FROM {_quote(collection)}"):
            state = json.loads(raw).get("state") or {}
            values = [self._column_value(collection, key, state.get(key)) for key in keys]
            rows.append([*values, object_id])
        assignments = ", ".join(f"{_quote(f'k_{key}')} = ?" for key in keys)
        self._batch(f"UPDATE {_quote(collection)} SET {assignments} WHERE id = ?", rows)

    def _batch(self, sql: str, rows: list[list[Any]]) -> None:
        """``sql`` once per row, all of them or none."""
        self._conn.execute("BEGIN")
        try:
            self._conn.executemany(sql, rows)
            self._conn.execute("COMMIT")
        except BaseException:
            if self._conn.in_transaction:
                self._conn.execute("ROLLBACK")
            raise

    def _column_value(self, collection: str, key: str, value: Any) -> Any:
        if value is None:
            return None
        dtype = self._schemas.get(collection, {}).get(key)
        if dtype is DataType.BOOL:
            return int(bool(value))
        if dtype is DataType.JSON and not isinstance(value, str):
            return _dump_doc(value)
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

    @_typed
    def put_many(self, collection: str, docs: list[dict[str, Any]]) -> None:
        if not docs:
            return
        self._ensure_table(collection)
        sql = self._upsert_sql(collection)
        rows = [self._row_values(collection, doc) for doc in docs]
        if len(rows) == 1:
            # Under ``isolation_level = None`` a statement is its own
            # transaction: one document needs no BEGIN … COMMIT.
            self._conn.execute(sql, rows[0])
        else:
            self._batch(sql, rows)

    @_typed
    def get(self, collection: str, key: str) -> dict[str, Any] | None:
        if collection not in self._schemas:
            return None
        row = self._conn.execute(
            f"SELECT doc FROM {_quote(collection)} WHERE id = ?", (key,)
        ).fetchone()
        return json.loads(row[0]) if row else None

    @_typed
    def delete(self, collection: str, key: str) -> None:
        if collection not in self._schemas:
            return
        self._conn.execute(
            f"DELETE FROM {_quote(collection)} WHERE id = ?", (key,)
        )

    @_typed
    def keys(self, collection: str) -> list[str]:
        if collection not in self._schemas:
            return []
        rows = self._conn.execute(
            f"SELECT id FROM {_quote(collection)} ORDER BY id"
        ).fetchall()
        return [row[0] for row in rows]

    @_typed
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

    @_typed
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

    def _indexed_query(self, collection: str, query: Query) -> QueryResult:
        conditions: list[str] = []
        params: list[Any] = []
        comparator = "<" if query.descending else ">"
        seeks = query.cursor is not None and query.order_by is not None
        for pred in query.where:
            column = _quote(f"k_{pred.key}")
            value = self._column_value(collection, pred.key, pred.value)
            bounds = [(_SQL_OPS[pred.op], value)]
            if pred.op == "prefix":
                bounds.append(("<", str(value) + _PREFIX_CEILING))
            for op, bound in bounds:
                # A bound on the order key that the cursor already
                # implies stays as a filter (a forged cursor may lie
                # outside it) but behind a unary ``+``, out of the
                # planner's reach: the index seek is the cursor's.
                implied = seeks and pred.key == query.order_by and op[0] == comparator
                conditions.append(f"{'+' if implied else ''}{column} {op} ?")
                params.append(bound)
        order_sql = "id ASC"
        if query.order_by is not None:
            order_column = _quote(f"k_{query.order_by}")
            conditions.append(f"{order_column} IS NOT NULL")
            direction = "DESC" if query.descending else "ASC"
            order_sql = f"{order_column} {direction}, id {direction}"
        if query.cursor is not None:
            sql, values = self._cursor_condition(query, comparator)
            conditions.append(sql)
            params.extend(values)
        select = (
            f"SELECT doc FROM {_quote(collection)} "
            f"WHERE {' AND '.join(conditions) or '1'} ORDER BY {order_sql}"
        )
        if query.limit is not None:
            # One row past the page tells us whether a next page exists.
            select += " LIMIT ?"
            params.append(query.limit + 1)

        plan = self._plans.get(select)
        if plan is None:
            if len(self._plans) >= _PLAN_MEMO_SIZE:
                self._plans.clear()
            plan = self._plans[select] = "; ".join(
                str(row[-1])
                for row in self._conn.execute(f"EXPLAIN QUERY PLAN {select}", params)
            )

        rows = self._conn.execute(select, params).fetchall()
        docs = [json.loads(row[0]) for row in rows]
        next_cursor = None
        if query.limit is not None and len(docs) > query.limit:
            docs = docs[: query.limit]
            next_cursor = encode_cursor(docs[-1], query.order_by)
        return QueryResult(
            docs=docs,
            # What the query is billed for: the rows this one statement
            # produced — the page and its look-ahead row, wherever the
            # page lies in the match set.
            scanned=len(rows),
            # Only our "ix_*" secondary indexes count — a scan that
            # happens to walk the PK autoindex is still a scan.
            index_used="INDEX IX_" in plan.upper(),
            plan=plan,
            next_cursor=next_cursor,
        )

    def _cursor_condition(self, query: Query, comparator: str) -> tuple[str, list[Any]]:
        if query.order_by is None:
            return "id > ?", [query.cursor[0]]
        order_column = _quote(f"k_{query.order_by}")
        cursor_value, cursor_id = query.cursor
        if any(
            pred.key == query.order_by and pred.op == "eq" and pred.value == cursor_value
            for pred in query.where
        ):
            # The order key is pinned to the cursor's value: only the id
            # moves, and ``k = ? AND id > ?`` is one seek.
            return f"id {comparator} ?", [cursor_id]
        return f"({order_column}, id) {comparator} (?, ?)", [cursor_value, cursor_id]
