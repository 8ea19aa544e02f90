"""Backend conformance: every engine honours the same contract.

The dict engine and the SQLite engine (in-memory and file-backed) are
run through identical CRUD, query-equivalence, fault, and accounting
suites; SQLite additionally proves its secondary indexes, schema
recovery, and backfill behaviour.
"""

import random
import sqlite3

import pytest

from repro.errors import StorageError, ValidationError
from repro.model.types import DataType
from repro.sim.kernel import Environment
from repro.storage.backends import (
    DictBackend,
    SqliteBackend,
    StorageConfig,
    make_backend,
)
from repro.storage.kv import DocumentStore
from repro.storage.query import Predicate, Query, decode_cursor, evaluate_query

SCHEMA = {
    "total": DataType.FLOAT,
    "region": DataType.STR,
    "priority": DataType.INT,
    "active": DataType.BOOL,
}


def corpus():
    docs = []
    rng = random.Random(11)
    regions = ["eu-west", "eu-east", "us-east", "ap-south"]
    for i in range(40):
        state = {
            "total": round(rng.uniform(0, 100), 2),
            "region": rng.choice(regions),
            "priority": rng.randrange(5),
            "active": bool(i % 2),
        }
        if i % 7 == 0:
            del state["total"]  # some docs miss the order key
        docs.append({"id": f"Order~{i:03d}", "cls": "Order", "version": 1, "state": state})
    return docs


def make_engines(tmp_path):
    return {
        "dict": DictBackend(),
        "sqlite-memory": SqliteBackend(),
        "sqlite-file": SqliteBackend(str(tmp_path / "store.db")),
    }


@pytest.fixture(params=["dict", "sqlite-memory", "sqlite-file"])
def engine(request, tmp_path):
    backend = make_engines(tmp_path)[request.param]
    backend.register_schema("orders", SCHEMA)
    yield backend
    backend.close()


class TestConformanceCrud:
    def test_put_get_round_trip(self, engine):
        doc = {"id": "Order~001", "cls": "Order", "version": 3, "state": {"total": 9.5}}
        engine.put("orders", dict(doc))
        assert engine.get("orders", "Order~001") == doc

    def test_upsert_replaces(self, engine):
        engine.put("orders", {"id": "a", "state": {"total": 1.0}})
        engine.put("orders", {"id": "a", "state": {"total": 2.0}})
        assert engine.count("orders") == 1
        assert engine.get("orders", "a")["state"]["total"] == 2.0

    def test_get_missing(self, engine):
        assert engine.get("orders", "ghost") is None
        assert engine.get("never-created", "ghost") is None

    def test_delete(self, engine):
        engine.put("orders", {"id": "a", "state": {}})
        engine.delete("orders", "a")
        engine.delete("orders", "a")  # idempotent
        assert engine.get("orders", "a") is None
        assert engine.count("orders") == 0

    def test_keys_sorted(self, engine):
        for object_id in ("c", "a", "b"):
            engine.put("orders", {"id": object_id, "state": {}})
        assert engine.keys("orders") == ["a", "b", "c"]

    def test_put_many_and_get_many(self, engine):
        engine.put_many("orders", [{"id": "a", "state": {}}, {"id": "b", "state": {}}])
        out = engine.get_many("orders", ["a", "b", "ghost"])
        assert out["a"]["id"] == "a"
        assert out["ghost"] is None


QUERIES = [
    Query(),
    Query(where=(Predicate("total", "ge", 25.0), Predicate("total", "lt", 75.0))),
    Query(where=(Predicate("region", "eq", "eu-west"),)),
    Query(where=(Predicate("region", "prefix", "eu-"),), order_by="total"),
    Query(where=(Predicate("active", "eq", True),), order_by="total", descending=True),
    Query(where=(Predicate("priority", "le", 2),), order_by="region", limit=5),
    Query(order_by="total", limit=7),
    Query(limit=3),
]


class TestConformanceQuery:
    """Every engine must return exactly what the reference evaluator does."""

    @pytest.mark.parametrize("query_index", range(len(QUERIES)))
    def test_matches_reference_evaluator(self, engine, query_index):
        docs = corpus()
        engine.put_many("orders", [dict(d) for d in docs])
        query = QUERIES[query_index]
        expected = evaluate_query(docs, query)
        got = engine.query("orders", query)
        assert [d["id"] for d in got.docs] == [d["id"] for d in expected.docs]
        assert got.docs == expected.docs

    def test_cursor_walk_visits_everything_once(self, engine):
        docs = corpus()
        engine.put_many("orders", [dict(d) for d in docs])
        visited = []
        cursor = None
        for _ in range(100):
            query = Query(order_by="total", limit=6, cursor=cursor)
            page = engine.query("orders", query)
            visited.extend(d["id"] for d in page.docs)
            if page.next_cursor is None:
                break
            cursor = decode_cursor(page.next_cursor, "total")
        reference = evaluate_query(docs, Query(order_by="total"))
        assert visited == [d["id"] for d in reference.docs]
        assert len(visited) == len(set(visited))

    def test_query_before_any_put(self, engine):
        result = engine.query("orders", Query())
        assert result.docs == []
        assert result.scanned == 0


class TestSqliteSpecifics:
    def test_range_query_hits_secondary_index(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "ix.db"))
        backend.register_schema("orders", SCHEMA)
        backend.put_many("orders", [dict(d) for d in corpus()])
        result = backend.query(
            "orders", Query(where=(Predicate("total", "ge", 50.0),), order_by="total")
        )
        assert result.index_used is True
        assert "ix_orders_total" in result.plan
        # Billed scan is the filtered row count, not the table size.
        assert result.scanned == len(result.docs) < 40
        # An unselective plan that merely walks the PK autoindex must
        # not claim a secondary-index hit.
        unselective = backend.query(
            "orders", Query(where=(Predicate("total", "ge", 0.0),))
        )
        if "ix_orders_total" not in unselective.plan:
            assert unselective.index_used is False
        backend.close()

    def test_unregistered_key_falls_back_to_table_scan(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "scan.db"))
        backend.register_schema("orders", {"total": DataType.FLOAT})
        docs = corpus()
        backend.put_many("orders", [dict(d) for d in docs])
        query = Query(where=(Predicate("region", "eq", "eu-west"),))
        result = backend.query("orders", query)
        expected = evaluate_query(docs, query)
        assert result.plan == "table-scan"
        assert result.index_used is False
        assert result.scanned == len(docs)
        assert result.docs == expected.docs
        backend.close()

    def test_register_schema_backfills_existing_docs(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "fill.db"))
        backend.register_schema("orders", {"total": DataType.FLOAT})
        docs = corpus()
        backend.put_many("orders", [dict(d) for d in docs])
        # The class update declares a new key; old rows must be indexed.
        backend.register_schema("orders", {"region": DataType.STR})
        query = Query(where=(Predicate("region", "prefix", "eu-"),))
        result = backend.query("orders", query)
        expected = evaluate_query(docs, query)
        assert result.docs == expected.docs
        assert result.index_used is True
        backend.close()

    def test_schema_recovered_on_reopen(self, tmp_path):
        path = str(tmp_path / "reopen.db")
        first = SqliteBackend(path)
        first.register_schema("orders", SCHEMA)
        docs = corpus()
        first.put_many("orders", [dict(d) for d in docs])
        first.close()

        second = SqliteBackend(path)
        assert second.keys("orders") == sorted(d["id"] for d in docs)
        query = Query(where=(Predicate("total", "ge", 50.0),), order_by="total")
        result = second.query("orders", query)
        expected = evaluate_query(docs, query)
        assert [d["id"] for d in result.docs] == [d["id"] for d in expected.docs]
        assert result.index_used is True
        second.close()

    def test_put_changing_one_key_keeps_the_other_keys_index_entry(self, tmp_path):
        """A put is an upsert (``ON CONFLICT(id) DO UPDATE``), not a
        delete + insert: the index entries of key columns it does not
        change are left where they are and must still answer; a class
        update that adds a key rebuilds the cached statement."""
        backend = SqliteBackend(str(tmp_path / "upsert.db"))
        backend.register_schema("orders", SCHEMA)
        docs = [dict(d, state=dict(d["state"])) for d in corpus()]
        backend.put_many("orders", [dict(d) for d in docs])
        moved = docs[3]
        assert "total" in moved["state"]
        moved["state"]["total"] = 250.0  # only one indexed key changes
        moved["version"] = 2
        backend.put("orders", dict(moved))
        for query in (
            Query(where=(Predicate("region", "eq", moved["state"]["region"]),), order_by="region"),
            Query(where=(Predicate("priority", "ge", moved["state"]["priority"]),), order_by="priority"),
            Query(where=(Predicate("total", "ge", 200.0),), order_by="total"),
            Query(where=(Predicate("total", "lt", 200.0),), order_by="total"),
        ):
            result = backend.query("orders", query)
            expected = evaluate_query(docs, query)
            assert result.index_used is True
            assert result.docs == expected.docs
        assert backend.count("orders") == len(docs)
        assert backend.get("orders", moved["id"]) == moved
        # Dropping a key from a document nulls its column, as a replace did.
        del moved["state"]["region"]
        backend.put("orders", dict(moved))
        query = Query(where=(Predicate("region", "ge", ""),), order_by="region")
        assert moved["id"] not in [d["id"] for d in backend.query("orders", query).docs]
        # A new key after the statement was cached.
        backend.register_schema("orders", {"tier": DataType.STR})
        moved["state"]["tier"] = "gold"
        backend.put("orders", dict(moved))
        result = backend.query("orders", Query(where=(Predicate("tier", "eq", "gold"),)))
        assert [d["id"] for d in result.docs] == [moved["id"]]
        backend.close()

    def test_bool_and_json_values_round_trip(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "types.db"))
        backend.register_schema("t", {"flag": DataType.BOOL, "blob": DataType.JSON})
        doc = {"id": "x", "state": {"flag": True, "blob": {"a": [1, 2]}}}
        backend.put("t", dict(doc))
        assert backend.get("t", "x") == doc
        result = backend.query("t", Query(where=(Predicate("flag", "eq", True),)))
        assert [d["id"] for d in result.docs] == ["x"]
        backend.close()


class TestSqliteFailsTyped:
    """Closed, read-only or locked, the engine answers ``StorageError``
    naming the collection and carrying SQLite's own message — on the
    read side too, where a raw ``sqlite3`` exception used to get out."""

    @staticmethod
    def calls(backend):
        pair = [{"id": "x", "state": {}}, {"id": "y", "state": {}}]
        return {
            "get": lambda: backend.get("orders", "Order~001"),
            "query": lambda: backend.query("orders", Query(order_by="total", limit=3)),
            "delete": lambda: backend.delete("orders", "Order~001"),
            "keys": lambda: backend.keys("orders"),
            "count": lambda: backend.count("orders"),
            "put": lambda: backend.put("orders", pair[0]),
            "put_many": lambda: backend.put_many("orders", pair),
        }

    @pytest.fixture()
    def path(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "typed.db"))
        backend.register_schema("orders", SCHEMA)
        backend.put_many("orders", [dict(d) for d in corpus()])
        backend.close()
        return str(tmp_path / "typed.db")

    def test_closed_connection(self, path):
        backend = SqliteBackend(path)
        backend.close()
        for name, call in self.calls(backend).items():
            # Including the batch, whose failed ``BEGIN`` says so itself
            # and is not replaced by "no transaction is active".
            with pytest.raises(StorageError, match="'orders' failed: .*closed database") as info:
                call()
            assert isinstance(info.value.__cause__, sqlite3.Error), name

    def test_read_only_database_file(self, path):
        backend = SqliteBackend(path)
        backend._conn.close()
        backend._conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        backend._conn.isolation_level = None
        calls = self.calls(backend)
        assert calls["get"]()["id"] == "Order~001" and calls["count"]() == 40
        assert len(calls["keys"]()) == 40 and calls["query"]().scanned == 4
        for name in ("delete", "put", "put_many"):
            with pytest.raises(StorageError, match="'orders' failed: .*readonly database"):
                calls[name]()
            assert not backend._conn.in_transaction, name
        backend.close()

    def test_locked_database_file(self, path):
        backend = SqliteBackend(path)
        backend._conn.execute("PRAGMA busy_timeout = 0")
        holder = sqlite3.connect(path)
        holder.execute("BEGIN IMMEDIATE")
        try:
            for name in ("delete", "put", "put_many"):
                with pytest.raises(StorageError, match="'orders' failed: .*locked"):
                    self.calls(backend)[name]()
                assert not backend._conn.in_transaction, name
        finally:
            holder.rollback()
            holder.close()
        self.calls(backend)["put_many"]()  # and the connection is usable again
        assert backend.count("orders") == 42
        backend.close()


class TestMakeBackend:
    def test_default_is_dict(self):
        assert isinstance(make_backend(StorageConfig()), DictBackend)

    def test_sqlite_with_path(self, tmp_path):
        backend = make_backend(
            StorageConfig(backend="sqlite", path=str(tmp_path / "x.db"))
        )
        assert isinstance(backend, SqliteBackend)
        assert backend.durable is True
        backend.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError, match="unknown storage backend"):
            make_backend(StorageConfig(backend="postgres"))


def run(env, process):
    """Drive the sim until ``process`` resolves; return its value."""
    env.run()
    return process.value


@pytest.fixture(params=["dict", "sqlite"])
def store(request, tmp_path):
    env = Environment()
    if request.param == "dict":
        backend = DictBackend()
    else:
        backend = SqliteBackend(str(tmp_path / "store.db"))
    backend.register_schema("orders", SCHEMA)
    store = DocumentStore(env, backend=backend)
    yield env, store
    store.close()


class TestDocumentStoreOverBackends:
    """DocumentStore semantics must not depend on the engine."""

    def test_write_then_read(self, store):
        env, store = store
        doc = {"id": "a", "state": {"total": 5.0}}
        run(env, store.write("orders", [doc]))
        got = run(env, store.read("orders", "a"))
        assert got == doc
        got["state"]["total"] = 99.0  # defensive copy: engine unaffected
        assert run(env, store.read("orders", "a"))["state"]["total"] == 5.0

    def test_injected_fault_leaves_engine_unmutated(self, store):
        env, store = store
        run(env, store.write("orders", [{"id": "a", "state": {"total": 1.0}}]))
        store.set_write_fault(1.0)

        def scenario(env):
            try:
                yield store.write(
                    "orders",
                    [{"id": "a", "state": {"total": 9.0}}, {"id": "b", "state": {}}],
                )
            except StorageError as exc:
                return str(exc)
            return None

        error = run(env, env.process(scenario(env)))
        assert error is not None and "injected write fault" in error
        assert store.faulted_writes == 1
        # The faulted batch consumed units but mutated nothing — neither
        # the updated doc nor the new one landed, on any engine.
        assert store.get_sync("orders", "a")["state"]["total"] == 1.0
        assert store.get_sync("orders", "b") is None
        store.clear_write_fault()
        run(env, store.write("orders", [{"id": "b", "state": {}}]))
        assert store.count("orders") == 2

    def test_query_cost_is_two_phase(self, store):
        env, store = store
        docs = [{"id": f"d{i}", "state": {"total": float(i)}} for i in range(10)]
        run(env, store.write("orders", docs))
        before = store.units_for("orders")
        result = run(
            env, store.query("orders", Query(where=(Predicate("total", "ge", 4.0),)))
        )
        spent = store.units_for("orders") - before
        assert spent == store.model.op_cost + result.scanned * store.model.read_cost
        assert store.query_ops == 1
        assert store.query_docs_scanned == result.scanned

    def test_indexed_scan_is_cheaper_than_full_scan(self, tmp_path):
        """The SQLite index makes the *same* query cost fewer units than
        the dict engine's unavoidable full scan — the modeled payoff of
        declaring keySpecs."""
        costs = {}
        for name in ("dict", "sqlite"):
            env = Environment()
            backend = (
                DictBackend()
                if name == "dict"
                else SqliteBackend(str(tmp_path / "cost.db"))
            )
            backend.register_schema("orders", SCHEMA)
            store = DocumentStore(env, backend=backend)
            run(env, store.write("orders", [dict(d) for d in corpus()]))
            before = store.units_for("orders")
            run(
                env,
                store.query(
                    "orders", Query(where=(Predicate("total", "ge", 95.0),))
                ),
            )
            costs[name] = store.units_for("orders") - before
            store.close()
        assert costs["sqlite"] < costs["dict"]

    def test_query_result_docs_are_copies(self, store):
        env, store = store
        run(env, store.write("orders", [{"id": "a", "state": {"total": 1.0}}]))
        result = run(env, store.query("orders", Query()))
        result.docs[0]["state"]["total"] = 42.0
        assert store.get_sync("orders", "a")["state"]["total"] == 1.0

    def test_durable_flag_reflects_engine(self, store):
        env, store = store
        assert store.durable is store.backend.durable
        assert store.durable is (store.backend.name == "sqlite")
