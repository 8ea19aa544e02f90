"""The store's budget on the real path, in counts.

What one store operation does and what it is charged, held the way
``tests/test_real_path_budget.py`` holds the scheduler hop — SQLite VM
steps, statements and work units counted, nothing timed:

* a page costs a page: the page statement's VM steps do not depend on
  how deep in the match set the page lies, nor on the table's size;
* a request costs at most one statement: one upsert per add, one
  ``SELECT`` per warm query, nothing per peek — and a ``persistence:
  strong`` commit reaches the engine exactly once;
* a query is billed for the rows its statement produced.

docs/storage.md ("Cost model", "Keyset seeks") and docs/architecture.md
("Hot-path rules") say what keeps them there.
"""

import asyncio

import pytest

from repro.durability.plane import DurabilityConfig
from repro.model.types import DataType
from repro.scheduler.plane import SchedulerConfig
from repro.storage.backends import SqliteBackend, StorageConfig
from repro.storage.query import Predicate, Query, evaluate_query

from tests.helpers import make_platform, run_async
from tests.test_real_path_budget import QUIET, KeepAlive, add, peek

LIMIT = 10


# -- (i) paging is flat -------------------------------------------------------


def page_steps(rows: int, descending: bool, bounded: bool) -> dict[str, int]:
    """VM steps of the page statement for the first, a middle and the
    last page over ``rows`` documents, four to each order-key value."""
    backend = SqliteBackend()
    backend.register_schema("orders", {"total": DataType.INT, "note": DataType.STR})
    docs = [
        {"id": f"o-{index:05d}", "state": {"total": index // 4, "note": f"n{index % 7}"}}
        for index in range(rows)
    ]
    backend.put_many("orders", docs)
    top = rows // 4
    where = (
        (Predicate("total", "ge", top // 20), Predicate("total", "lt", top - top // 20))
        if bounded
        else ()
    )
    matches = evaluate_query(docs, Query(where, "total", descending)).docs
    steps = {}
    pages = {"first": 0, "middle": len(matches) // 2 + 1, "last": len(matches) - LIMIT}
    for name, at in pages.items():
        cursor = (matches[at - 1]["state"]["total"], matches[at - 1]["id"]) if at else None
        query = Query(where, "total", descending, LIMIT, cursor)
        # Once for the answer (and the plan memo), once more counted:
        # only the page statement runs the second time.
        assert backend.query("orders", query).docs == matches[at : at + LIMIT]
        count = 0

        def step():
            nonlocal count
            count += 1

        backend._conn.set_progress_handler(step, 1)
        backend.query("orders", query)
        backend._conn.set_progress_handler(None, 1)
        steps[name] = count
    backend.close()
    return steps


@pytest.mark.parametrize("bounded", [False, True], ids=["open", "range-on-order-key"])
@pytest.mark.parametrize("descending", [False, True], ids=["asc", "desc"])
def test_a_page_costs_a_page_at_any_depth_and_any_size(descending, bounded):
    small, large = page_steps(500, descending, bounded), page_steps(5000, descending, bounded)
    for name, count in large.items():
        assert count <= 4 * large["first"], (name, large)
    assert large["first"] <= small["first"], (small, large)


# -- (ii) statements per request, (iii) the bill over HTTP ---------------------

ORDER_YAML = """
name: budget
classes:
  - name: Order
    constraint: {persistence: strong}
    keySpecs:
      - {name: total, type: INT, default: 0}
      - {name: note, type: STR, default: ""}
    functions:
      - {name: add, image: budget/add, provision: {minScale: 3}}
      - {name: peek, image: budget/peek, mutable: false, provision: {minScale: 3}}
"""
HANDLERS = {"budget/add": (add, 0.002), "budget/peek": (peek, 0.002)}
OBJECTS = 60
ADDS = PEEKS = 120
QUERIES = 30
QUERY = "/api/classes/Order/objects?where=total%3E%3D20&order=total&limit=10"


class CountingConnection:
    """The engine's connection, counting the statements sent to it."""

    def __init__(self, conn):
        self._conn = conn
        self.statements = 0

    def execute(self, *args):
        self.statements += 1
        return self._conn.execute(*args)

    def executemany(self, *args):
        self.statements += 1
        return self._conn.executemany(*args)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def test_a_request_costs_at_most_one_statement_and_a_commit_lands_once(tmp_path):
    platform = make_platform(
        ORDER_YAML,
        HANDLERS,
        nodes=3,
        seed=7,
        storage=StorageConfig("sqlite", str(tmp_path / "budget.db")),
        durability=DurabilityConfig(enabled=True),
        scheduler=SchedulerConfig(enabled=True, transport="asyncio", pool_size=2, **QUIET),
    )
    ids = [
        platform.new_object("Order", {"total": index, "note": "x" * 64}, object_id=f"o-{index}")
        for index in range(OBJECTS)
    ]
    platform.flush()
    backend = platform.store.backend
    conn = backend._conn = CountingConnection(backend._conn)
    puts = []  # the size of every batch handed to the engine
    put_many = backend.put_many

    def counted_put_many(collection, docs):
        puts.append(len(docs))
        put_many(collection, docs)

    backend.put_many = counted_put_many

    async def scenario():
        front = await platform.serve_http()
        connection = KeepAlive(*await asyncio.open_connection(front.host, front.port))
        spent = {}

        async def phase(name, count, method, path):
            statements, calls = conn.statements, len(puts)
            bodies = []
            for index in range(count):
                status, body = await connection.request(
                    method, path.format(oid=ids[index % OBJECTS]), {"n": 1}
                )
                assert status == 200, body
                bodies.append(body)
            spent[name] = (conn.statements - statements, len(puts) - calls)
            return bodies

        await phase("warm-up", 1, "GET", QUERY)  # the plan is read once per statement text
        await phase("add", ADDS, "POST", "/api/objects/{oid}/invokes/add")
        await phase("peek", PEEKS, "POST", "/api/objects/{oid}/invokes/peek")
        pages = await phase("query", QUERIES, "GET", QUERY)
        connection.writer.close()
        await front.stop()
        return spent, pages

    spent, pages = run_async(scenario())
    write_behind = platform.crm.runtimes["Order"].dht.write_behind_stats
    platform.shutdown()
    assert spent["add"] == (ADDS, ADDS) and set(puts) == {1}  # one autocommit upsert each
    assert spent["peek"] == (0, 0)
    assert spent["query"] == (QUERIES, 0)
    # Nothing went behind, not even the creates: the write-through was
    # the store write.
    assert write_behind["enqueued"] == write_behind["flush_ops"] == 0
    for body in pages:
        assert body["count"] == LIMIT and body["cursor"]
        assert body["scanned"] == LIMIT + 1  # the page and its look-ahead row


@pytest.mark.parametrize("engine", ["dict", "sqlite"])
def test_a_query_is_billed_for_the_rows_its_statement_produced(engine):
    platform = make_platform(
        ORDER_YAML,
        HANDLERS,
        nodes=2,
        storage=StorageConfig(engine),
        durability=DurabilityConfig(enabled=True),
    )
    for index in range(40):
        platform.new_object("Order", {"total": index}, object_id=f"o-{index:02d}")
    platform.flush()
    store, collection = platform.store, platform.crm.runtimes["Order"].dht.collection
    matching = 25  # total >= 15

    def billed(path):
        before = store.units_for(collection)
        response = platform.http("GET", "/api/classes/Order/objects?where=total%3E%3D15" + path)
        assert response.status == 200
        body = response.body
        charged = store.units_for(collection) - before
        assert charged == store.model.op_cost + body["scanned"] * store.model.read_cost
        return body

    try:
        unlimited = billed("&order=total")
        paged = billed("&order=total&limit=10")
        last = billed("&order=total&limit=10&cursor=" + billed(
            "&order=total&limit=10&cursor=" + paged["cursor"]
        )["cursor"])
        assert unlimited["count"] == matching and paged["cursor"] and last["cursor"] is None
        if engine == "sqlite":
            assert unlimited["scanned"] == matching
            assert paged["scanned"] == paged["count"] + 1 == 11
            assert last["scanned"] == last["count"] == 5
        else:  # a dict scan touches every document and says so
            assert unlimited["scanned"] == paged["scanned"] == last["scanned"] == 40
    finally:
        platform.shutdown()
