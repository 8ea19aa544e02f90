"""The storage isolation contract.

Storage copies a document where it crosses its edge — once when it
enters (``Dht.put`` / ``compare_and_put`` / ``DocumentStore.write``) and
once when it leaves toward code that may mutate it (``Dht.get`` /
``peek`` / ``stale_get``, ``DocumentStore.read*`` / ``query`` /
``get_sync``, and so the ``state`` a user function receives).  Inside,
versions may be shared freely because nothing mutates one in place.

These tests hold the edge: whatever a caller does to a document it
passed in or got back — at the top level or inside a nested list/dict
of ``state`` — nothing storage holds changes: not resident memory on
any replica, not the write-behind buffer, not a near cache, not the
store's document, not a snapshot cut.
"""

import copy
import json

import pytest

import repro.invoker.engine
import repro.storage.dht
from repro.durability.plane import DurabilityConfig
from repro.durability.snapshot import data_key
from repro.monitoring.events import EventLog
from repro.sim.network import Network, NetworkModel
from repro.storage.backends import StorageConfig
from repro.storage.backends.memory import DictBackend
from repro.storage.backends.sqlite import SqliteBackend
from repro.storage.dht import Dht, DhtModel
from repro.storage.document import copy_doc
from repro.storage.kv import DbModel, DocumentStore
from repro.storage.query import Query
from repro.storage.read_path import ReadBatchConfig
from repro.storage.write_behind import WriteBehindConfig

from tests.helpers import make_platform

COLLECTION = "objects"
KEY = "k"


@pytest.fixture(params=["dict", "sqlite"])
def backend(request):
    engine = DictBackend() if request.param == "dict" else SqliteBackend()
    yield engine
    engine.close()


def make_dht(env, backend, **model):
    """Three nodes, two copies of every record (one non-owner left to
    exercise the near cache), a write-behind that lingers long enough
    for a test to look into its buffer."""
    store = DocumentStore(env, DbModel(capacity_units_per_s=10000.0), backend=backend)
    dht = Dht(
        env,
        ["n0", "n1", "n2"],
        Network(env, NetworkModel()),
        store,
        DhtModel(
            replication=2,
            near_cache_entries=4,
            write_behind=WriteBehindConfig(batch_size=10, linger_s=5.0),
            **model,
        ),
        collection=COLLECTION,
    )
    return dht, store


def run(env, event):
    return env.run(until=event)


def doc(version=1):
    return {
        "id": KEY,
        "cls": "T",
        "version": version,
        "state": {"tags": ["a", "b"], "meta": {"owner": "alice", "acl": ["r"]}, "n": version},
        "files": {},
    }


def poison(document):
    """Everything a careless caller could do to a document it holds."""
    document["version"] = 999
    document["state"]["n"] = -1
    document["state"]["injected"] = True
    document["state"]["tags"].append("poison")
    document["state"]["meta"]["owner"] = "mallory"
    document["state"]["meta"]["acl"].clear()
    document["files"]["f"] = "stolen"


def holdings(dht, store):
    """A deep snapshot of every copy of KEY that storage holds."""
    held = {
        "memory": {node: mem.get(KEY) for node, mem in dht._mem.items()},
        "near": {node: cache.get(KEY) for node, cache in dht._near.items()},
        "buffer": {node: queue._buffer.get(KEY) for node, queue in dht._queues.items()},
        "store": store.backend.get(COLLECTION, KEY),
    }
    return copy.deepcopy(held)


def non_owner(dht):
    return next(node for node in dht.nodes if node not in dht.owners(KEY))


class TestDhtInputs:
    @pytest.mark.parametrize("conditional", [False, True], ids=["put", "compare_and_put"])
    def test_mutating_a_document_after_put_changes_nothing_held(self, env, backend, conditional):
        dht, store = make_dht(env, backend)
        if conditional:
            run(env, dht.put(doc(1), caller="n0"))
            mine = doc(2)
            run(env, dht.compare_and_put(mine, expected_version=1, caller="n0"))
        else:
            mine = doc(1)
            run(env, dht.put(mine, caller="n0"))
        pristine = copy.deepcopy(mine)
        before = holdings(dht, store)
        assert sum(held == pristine for held in before["memory"].values()) == 2
        assert sum(held == pristine for held in before["buffer"].values()) == 1

        poison(mine)

        assert holdings(dht, store) == before
        assert run(env, dht.get(KEY, caller="n0")) == pristine
        run(env, dht.flush_all())
        assert store.get_sync(COLLECTION, KEY) == pristine

    def test_the_document_put_returns_is_the_callers_to_mutate(self, env, backend):
        dht, store = make_dht(env, backend)
        returned = run(env, dht.put(doc(), caller="n0"))
        before = holdings(dht, store)
        poison(returned)
        assert holdings(dht, store) == before


class TestDhtOutputs:
    @pytest.mark.parametrize("reader", ["get-owner", "get-non-owner", "peek", "stale_get"])
    def test_mutating_a_returned_document_changes_nothing_held(self, env, backend, reader):
        dht, store = make_dht(env, backend)
        run(env, dht.put(doc(), caller="n0"))
        run(env, dht.flush_all())  # the stale read serves the store's copy
        run(env, dht.put(doc(2), caller="n0"))  # ... and the buffer holds one again
        pristine = doc(1) if reader == "stale_get" else doc(2)

        def read():
            if reader == "peek":
                return dht.peek(KEY)
            if reader == "stale_get":
                return run(env, dht.stale_get(KEY))
            caller = dht.owners(KEY)[0] if reader == "get-owner" else non_owner(dht)
            return run(env, dht.get(KEY, caller=caller))

        first = read()
        assert first == pristine
        before = holdings(dht, store)
        poison(first)
        assert holdings(dht, store) == before
        # The second read of a non-owner is a near-cache hit.
        second = read()
        assert second == pristine
        poison(second)
        assert holdings(dht, store) == before
        assert read() == pristine
        if reader == "get-non-owner":
            assert dht.near_hits == 2

    @pytest.mark.parametrize("batched", [False, True], ids=["point-read", "coalesced-batch"])
    def test_a_document_loaded_on_a_miss_is_isolated_too(self, env, backend, batched):
        model = dict(read_coalescing=True, read_batch=ReadBatchConfig()) if batched else {}
        dht, store = make_dht(env, backend, **model)
        store.put_sync(COLLECTION, doc())
        reads = [dht.get(KEY, caller=non_owner(dht)), dht.get(KEY, caller=dht.owners(KEY)[0])]
        first, second = (run(env, read) for read in reads)
        assert first == second == doc()
        before = holdings(dht, store)
        assert sum(held == doc() for held in before["memory"].values()) == 2
        assert before["near"][non_owner(dht)] == doc()
        poison(first)
        assert second == doc()
        poison(second)
        assert holdings(dht, store) == before
        assert run(env, dht.get(KEY, caller="n0")) == doc()


class TestDocumentStore:
    def test_mutating_a_document_after_write_changes_nothing_stored(self, env, backend):
        store = DocumentStore(env, backend=backend)
        mine = doc()
        run(env, store.write(COLLECTION, [mine]))
        poison(mine)
        assert store.backend.get(COLLECTION, KEY) == doc()
        assert store.get_sync(COLLECTION, KEY) == doc()

    @pytest.mark.parametrize("reader", ["read", "read_many", "query", "get_sync"])
    def test_mutating_a_returned_document_changes_nothing_stored(self, env, backend, reader):
        store = DocumentStore(env, backend=backend)
        run(env, store.write(COLLECTION, [doc()]))

        def read():
            if reader == "read":
                return run(env, store.read(COLLECTION, KEY))
            if reader == "read_many":
                return run(env, store.read_many(COLLECTION, [KEY]))[KEY]
            if reader == "query":
                (found,) = run(env, store.query(COLLECTION, Query())).docs
                return found
            return store.get_sync(COLLECTION, KEY)

        first = read()
        assert first == doc()
        poison(first)
        assert read() == doc()
        assert store.backend.get(COLLECTION, KEY) == doc()


def poison_top(document):
    """Edits of the document's own keys only."""
    document["version"] = 999
    document["state"] = {"n": -1}
    document["files"] = None


def poison_nested(document):
    """Edits inside ``state``, every top-level key left as it was."""
    document["state"]["n"] = -1
    document["state"]["tags"].append("poison")
    document["state"]["meta"]["acl"].clear()


MISS_LOADS = {
    "point-read": {},
    "read-batch": {"read_batch": ReadBatchConfig()},
    "read-coalescing": {"read_coalescing": True},
}


class TestSharedVersions:
    """On a miss the DHT installs the version the store returns — on the
    dict engine, the very object the engine keeps — so the store's own
    edge must keep every caller's document out of it, and every
    returned one away from it."""

    @pytest.mark.parametrize("loader", sorted(MISS_LOADS))
    @pytest.mark.parametrize("edit", [poison_top, poison_nested], ids=["top", "nested"])
    @pytest.mark.parametrize("writer", ["write", "put_sync"])
    def test_a_document_edited_after_it_was_stored_loads_unedited(
        self, env, backend, writer, edit, loader
    ):
        dht, store = make_dht(env, backend, **MISS_LOADS[loader])
        mine = doc()
        if writer == "write":
            run(env, store.write(COLLECTION, [mine]))
        else:
            store.put_sync(COLLECTION, mine)
        edit(mine)
        loaded = run(env, dht.get(KEY, caller=dht.owners(KEY)[0]))
        assert loaded == doc()
        held = holdings(dht, store)
        assert [held["memory"][node] for node in dht.owners(KEY)] == [doc(), doc()]
        assert held["store"] == doc()

    @pytest.mark.parametrize("loader", sorted(MISS_LOADS))
    @pytest.mark.parametrize("reader", ["read", "get_sync"])
    def test_a_document_the_store_returns_after_a_miss_is_the_callers(
        self, env, backend, reader, loader
    ):
        dht, store = make_dht(env, backend, **MISS_LOADS[loader])
        store.put_sync(COLLECTION, doc())
        run(env, dht.get(KEY, caller=dht.owners(KEY)[0]))  # resident now
        before = holdings(dht, store)
        for edit in (poison_nested, poison_top):
            if reader == "read":
                returned = run(env, store.read(COLLECTION, KEY))
            else:
                returned = store.get_sync(COLLECTION, KEY)
            assert returned == doc()
            edit(returned)
            assert holdings(dht, store) == before
        assert run(env, dht.get(KEY, caller="n0")) == doc()


class TestEventLogReads:
    def test_editing_a_read_events_fields_changes_no_later_read(self, env):
        log = EventLog(env, enabled=True)
        log.record("scheduler.dead", worker="worker-1", reason="crash", requeued=2)
        (event,) = log.events()
        event.fields["reason"] = "poison"
        event.fields["injected"] = True
        (again,) = log.events("scheduler.dead")
        assert again.fields == {"worker": "worker-1", "reason": "crash", "requeued": 2}
        assert again.seq == event.seq == 1


class TestNonJsonValues:
    """State is JSON-shaped by contract, but a value that is not (a
    tuple, a set) keeps round-tripping exactly as it always has: kept as
    it is in memory and in the dict engine, coerced by the SQLite
    engine's JSON column."""

    def test_memory_keeps_the_value_and_still_isolates_it(self, env, backend):
        dht, store = make_dht(env, backend)
        mine = {"id": KEY, "cls": "T", "version": 1, "state": {"t": (1, [2]), "s": {3}}}
        run(env, dht.put(mine, caller="n0"))
        mine["state"]["t"][1].append("poison")
        mine["state"]["s"].add("poison")
        got = run(env, dht.get(KEY, caller="n0"))
        assert got["state"] == {"t": (1, [2]), "s": {3}}
        got["state"]["t"][1].append("poison")
        got["state"]["s"].add("poison")
        assert dht.peek(KEY)["state"] == {"t": (1, [2]), "s": {3}}

    def test_the_store_round_trip_is_the_engines(self, env, backend):
        dht, store = make_dht(env, backend)
        run(env, dht.put({"id": KEY, "cls": "T", "version": 1, "state": {"t": (1, 2), "s": {3}}}))
        run(env, dht.flush_all())
        stored = run(env, store.read(COLLECTION, KEY))
        if backend.durable:
            assert stored["state"] == {"t": [1, 2], "s": "{3}"}
        else:
            assert stored["state"] == {"t": (1, 2), "s": {3}}


NOTES_YAML = """
name: notes
classes:
  - name: Note
    keySpecs:
      - {name: tags, type: JSON, default: []}
      - {name: meta, type: JSON, default: {}}
      - {name: edits, type: INT, default: 0}
    functions:
      - {name: scribble, image: t/scribble}
      - {name: scribbleAndFail, image: t/scribble-fail}
      - {name: edit, image: t/edit}
"""


def scribble(ctx):
    """In-place edits of nested state, never assigned back: the diff
    against the incoming state sees nothing, so nothing is committed."""
    ctx.state["tags"].append("scribble")
    ctx.state["meta"]["owner"] = "mallory"


def scribble_and_fail(ctx):
    scribble(ctx)
    raise RuntimeError("handler crashed after scribbling")


def edit(ctx):
    ctx.state["edits"] += 1
    return {"edits": ctx.state["edits"]}


@pytest.fixture(params=["dict", "sqlite"])
def notes(request):
    platform = make_platform(
        NOTES_YAML,
        {"t/scribble": (scribble, 0.001), "t/scribble-fail": (scribble_and_fail, 0.001),
         "t/edit": (edit, 0.001)},
        storage=StorageConfig(backend=request.param),
        durability=DurabilityConfig(enabled=True, default_interval_s=1000.0),
    )
    yield platform
    platform.shutdown()


class TestUserFunctions:
    STATE = {"tags": ["a"], "meta": {"owner": "alice"}, "edits": 0}

    def test_in_place_edits_without_an_update_do_not_reach_the_object(self, notes):
        oid = notes.new_object("Note", copy.deepcopy(self.STATE))
        assert notes.invoke(oid, "scribble").ok
        assert notes.get_object(oid)["state"] == self.STATE
        assert notes.crm.runtime("Note").dht.peek(oid)["state"] == self.STATE

    def test_in_place_edits_of_a_failed_function_do_not_reach_the_object(self, notes):
        oid = notes.new_object("Note", copy.deepcopy(self.STATE))
        result = notes.invoke(oid, "scribbleAndFail", raise_on_error=False)
        assert not result.ok and result.error_type == "FunctionExecutionError"
        assert notes.get_object(oid)["state"] == self.STATE
        notes.flush()
        dht = notes.crm.runtime("Note").dht
        assert notes.store.get_sync(dht.collection, oid)["state"] == self.STATE

    def test_the_state_passed_to_new_stays_the_callers(self, notes):
        state = copy.deepcopy(self.STATE)
        oid = notes.new_object("Note", state)
        state["tags"].append("poison")
        state["meta"]["owner"] = "mallory"
        assert notes.get_object(oid)["state"] == self.STATE

    def test_a_snapshot_cut_holds_what_was_committed(self, notes):
        oid = notes.new_object("Note", copy.deepcopy(self.STATE))
        notes.invoke(oid, "edit")
        dht = notes.crm.runtime("Note").dht
        pristine = dht.peek(oid)
        assert pristine["state"] == {**self.STATE, "edits": 1}
        held = notes.run(dht.get(oid, caller=dht.nodes[0]))
        held["state"]["tags"].append("poison")
        dht.peek(oid)["state"]["meta"]["owner"] = "mallory"
        response = notes.http("POST", "/api/classes/Note/snapshots")
        assert response.status == 201 and response.body["captured"] == 1
        held["state"]["meta"]["owner"] = "mallory"
        bucket = notes.durability.config.bucket
        cut = json.loads(notes.object_store.get_object(bucket, data_key("Note", 1)).data)
        assert cut == {oid: pristine}


SCRATCH_YAML = """
name: scratch
classes:
  - name: Tally
    constraint: {persistence: none}
    keySpecs:
      - {name: n, type: INT, default: 0}
      - {name: tags, type: JSON}
"""


class TestMemoryOnlyQuery:
    """A query over a memory-only class reads the shared versions in
    place and copies only the page it returns — and that page is still
    the caller's to mutate."""

    @pytest.fixture
    def tallies(self, monkeypatch):
        platform = make_platform(SCRATCH_YAML, {})
        for n in range(200):
            platform.new_object("Tally", {"n": n, "tags": ["a"]}, object_id=f"Tally~t{n:03d}")
        copies = []

        def counted(doc):
            copies.append(doc)
            return copy_doc(doc)

        # Top-level copies only: the copier's own recursion is not counted.
        for module in (repro.storage.dht, repro.invoker.engine):
            monkeypatch.setattr(module, "copy_doc", counted, raising=False)
        yield platform, copies
        platform.shutdown()

    def test_a_page_of_five_copies_five_documents(self, tallies):
        platform, copies = tallies
        response = platform.http("GET", "/api/classes/Tally/objects?where=n>=190&limit=5")
        assert response.ok, response.body
        assert [doc["state"]["n"] for doc in response.body["objects"]] == [190, 191, 192, 193, 194]
        assert response.body["scanned"] == 200
        assert len(copies) <= 5

    def test_mutating_the_page_changes_nothing_held(self, tallies):
        platform, _ = tallies
        page = platform.http("GET", "/api/classes/Tally/objects?where=n>=199").body["objects"]
        page[0]["state"]["tags"].append("poison")
        page[0]["state"]["n"] = -1
        assert platform.get_object("Tally~t199")["state"] == {"n": 199, "tags": ["a"]}
