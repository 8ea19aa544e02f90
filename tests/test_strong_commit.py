"""A ``persistence: strong`` commit on a durable engine lands once.

The durability tracker's write-through *is* the store write
(docs/durability.md, "Write-through"): the version is not also buffered
for write-behind, the store books what the write costs, and a faulted
write-through fails the commit — nothing is acknowledged that the
engine does not hold.  ``tests/test_sqlite_durability.py`` keeps the
``kill -9`` drill; here the same contract is held in counts.
"""

import asyncio

from repro.durability.plane import DurabilityConfig
from repro.model.pkg import loads_package
from repro.scheduler.plane import SchedulerConfig
from repro.storage.backends import SqliteBackend, StorageConfig
from repro.storage.write_behind import WriteBehindConfig

from tests.helpers import make_platform, run_async
from tests.test_real_path_budget import QUIET, KeepAlive
from tests.test_store_budget import HANDLERS, ORDER_YAML

OBJECTS = 12
ADDS = 60


def strong_platform(db_path, **config):
    return make_platform(
        ORDER_YAML,
        HANDLERS,
        nodes=3,
        seed=7,
        storage=StorageConfig("sqlite", str(db_path)),
        durability=DurabilityConfig(enabled=True),
        **config,
    )


def test_every_final_version_is_in_the_file_and_was_written_once(tmp_path):
    platform = strong_platform(tmp_path / "once.db")
    store, dht = platform.store, platform.crm.runtimes["Order"].dht
    written = []
    put_many = store.backend.put_many

    def recording_put_many(collection, docs):
        written.extend(doc["id"] for doc in docs)
        put_many(collection, docs)

    store.backend.put_many = recording_put_many
    ids = [
        platform.new_object("Order", {"total": index}, object_id=f"o-{index:02d}")
        for index in range(OBJECTS)
    ]
    query_units = 0.0
    for index in range(ADDS):
        oid = ids[index % OBJECTS]
        response = platform.http("POST", f"/api/objects/{oid}/invokes/add", {"n": 100})
        assert response.status == 200
        # Acknowledged means in the engine: nothing waits in a queue.
        assert dht.write_behind_stats["pending"] == 0
        if index % 10 == 0:  # and a query issued right away reads it
            page = platform.http(
                "GET",
                f"/api/classes/Order/objects?where=total%3E%3D{response.body['total']}"
                "&order=total:desc&limit=1",
            )
            assert [doc["id"] for doc in page.body["objects"]] == [oid]
            assert page.body["objects"][0]["state"]["total"] == response.body["total"]
            query_units += store.model.op_cost + page.body["scanned"] * store.model.read_cost
    final = {oid: platform.get_object(oid) for oid in ids}
    # Written exactly once per acknowledged commit (the creates included),
    # and booked: the write-through is what ``units_for``, ``db.*`` and
    # the utilisation count for a strong class.
    commits = OBJECTS + ADDS
    assert len(written) == commits
    assert dht.write_behind_stats["enqueued"] == dht.write_behind_stats["flush_ops"] == 0
    assert store.write_ops == store.docs_written == commits
    assert store.read_ops == OBJECTS  # a create looks for the id first
    assert store.units_for(dht.collection) == (
        commits * store.model.write_units(1)
        + OBJECTS * store.model.read_units(1)
        + query_units
    )
    assert store.utilization(platform.now) > 0
    store.close()  # release the file; everything else abandoned

    reopened = SqliteBackend(str(tmp_path / "once.db"))
    try:
        for oid, doc in final.items():
            assert doc["version"] == 1 + ADDS // OBJECTS
            held = reopened.get(dht.collection, oid)
            assert (held["version"], held["state"]) == (doc["version"], doc["state"])
    finally:
        reopened.close()


def test_a_faulted_write_through_fails_the_commit_typed(tmp_path):
    platform = strong_platform(
        tmp_path / "fault.db",
        scheduler=SchedulerConfig(enabled=True, transport="asyncio", pool_size=2, **QUIET),
    )
    oid = platform.new_object("Order", {"total": 0}, object_id="o-0")
    store, collection = platform.store, platform.crm.runtimes["Order"].dht.collection

    async def scenario():
        front = await platform.serve_http()
        connection = KeepAlive(*await asyncio.open_connection(front.host, front.port))
        path = f"/api/objects/{oid}/invokes/add"
        answers = [await connection.request("POST", path, {"n": 1})]
        store.set_write_fault(1.0)
        answers.append(await connection.request("POST", path, {"n": 1}))
        held = store.get_sync(collection, oid)
        store.clear_write_fault()
        answers.append(await connection.request("POST", path, {"n": 1}))
        _, listing = await connection.request("GET", "/api/workers")
        connection.writer.close()
        await front.stop()
        return answers, held, listing["ledger"]

    (first, faulted, third), held, ledger = run_async(scenario())
    resident = platform.get_object(oid)
    assert first == (200, {"total": 1})
    assert faulted[0] == 500 and faulted[1]["type"] == "StorageError"
    assert "injected write fault" in faulted[1]["error"] and store.faulted_writes == 1
    # The engine never held the version whose commit failed …
    assert (held["version"], held["state"]["total"]) == (2, 1)
    # … versions stayed monotonic, the next commit landed, and every
    # request — the failed one too — is settled in the ledger.
    assert third[0] == 200 and resident["version"] == 4
    stored = store.get_sync(collection, oid)
    assert (stored["version"], stored["state"]) == (resident["version"], resident["state"])
    assert ledger["accepted"] == ledger["completed"] == 3 and ledger["outstanding"] == 0
    platform.shutdown()


def test_a_version_buffered_before_the_class_turned_strong_does_not_land_last(tmp_path):
    """A class updated ``standard`` → ``strong`` may still have an older
    version in its write-behind queue: while it does, a written-through
    version goes behind it as well, so the flusher's write is never the
    one that ends up in the store."""
    platform = make_platform(
        ORDER_YAML.replace("strong", "standard"),
        HANDLERS,
        nodes=3,
        seed=7,
        storage=StorageConfig("sqlite", str(tmp_path / "update.db")),
        # No cut inside the run: a cut drains the queues itself.
        durability=DurabilityConfig(enabled=True, default_interval_s=600.0),
    )
    oid = platform.new_object("Order", {"total": 0}, object_id="o-0")
    platform.flush()
    dht = platform.crm.runtimes["Order"].dht
    for queue in dht._queues.values():  # the flusher lingers past the update
        queue.config = WriteBehindConfig(linger_s=30.0)
    assert platform.http("POST", f"/api/objects/{oid}/invokes/add", {"n": 1}).status == 200
    assert dht.write_behind_stats["pending"] == 1
    platform.crm.update_class(loads_package(ORDER_YAML).resolved_classes()["Order"])
    assert platform.durability.tracker_for("Order").write_through is not None
    assert platform.http("POST", f"/api/objects/{oid}/invokes/add", {"n": 1}).status == 200
    assert platform.store.get_sync(dht.collection, oid)["version"] == 3  # written through
    assert dht.write_behind_stats["pending"] == 1
    platform.flush()
    assert platform.store.get_sync(dht.collection, oid)["version"] == 3
    enqueued = dht.write_behind_stats["enqueued"]
    # The queue has emptied: from here on a commit lands once.
    assert platform.http("POST", f"/api/objects/{oid}/invokes/add", {"n": 1}).status == 200
    assert dht.write_behind_stats["enqueued"] == enqueued
    platform.shutdown()
