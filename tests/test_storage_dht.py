"""Unit tests for the distributed in-memory hash table."""

import pytest

from repro.errors import ConcurrentModificationError, StorageError
from repro.sim.network import Network, NetworkModel
from repro.storage.dht import Dht, DhtModel
from repro.storage.kv import DbModel, DocumentStore
from repro.storage.write_behind import WriteBehindConfig


def make_dht(env, nodes=3, replication=1, persistent=True, capacity=10000.0,
             linger=0.001, batch=10):
    network = Network(env, NetworkModel())
    store = DocumentStore(env, DbModel(capacity_units_per_s=capacity)) if persistent else None
    dht = Dht(
        env,
        [f"n{i}" for i in range(nodes)],
        network,
        store,
        DhtModel(
            replication=replication,
            persistent=persistent,
            write_behind=WriteBehindConfig(batch_size=batch, linger_s=linger),
        ),
    )
    return dht, store, network


def run(env, generator):
    return env.run(until=env.process(generator))


def doc(key, version=1, **state):
    return {"id": key, "cls": "T", "version": version, "state": state}


class TestBasics:
    def test_requires_nodes(self, env):
        with pytest.raises(StorageError):
            Dht(env, [], Network(env), None, DhtModel(persistent=False))

    def test_persistent_requires_store(self, env):
        with pytest.raises(StorageError, match="document store"):
            Dht(env, ["a"], Network(env), None, DhtModel(persistent=True))

    def test_put_get_roundtrip(self, env):
        dht, _, _ = make_dht(env)

        def scenario(env):
            yield dht.put(doc("x", v=5), caller="n0")
            got = yield dht.get("x", caller="n1")
            return got

        assert run(env, scenario(env))["state"]["v"] == 5

    def test_get_missing_returns_none(self, env):
        dht, _, _ = make_dht(env)

        def scenario(env):
            got = yield dht.get("ghost", caller="n0")
            return got

        assert run(env, scenario(env)) is None

    def test_put_requires_id(self, env):
        dht, _, _ = make_dht(env)
        with pytest.raises(StorageError):
            run(env, iter_put(dht, {"no": "id"}))

    def test_returns_copies(self, env):
        dht, _, _ = make_dht(env)

        def scenario(env):
            yield dht.put(doc("x", v=1), caller="n0")
            first = yield dht.get("x", caller="n0")
            first["state"]["v"] = 999
            second = yield dht.get("x", caller="n0")
            return second

        assert run(env, scenario(env))["state"]["v"] == 1


def iter_put(dht, document):
    yield dht.put(document, caller=None)


class TestPersistence:
    def test_write_behind_reaches_store(self, env):
        dht, store, _ = make_dht(env)

        def scenario(env):
            for i in range(15):
                yield dht.put(doc(f"k{i}"), caller="n0")
            yield dht.flush_all()

        run(env, scenario(env))
        env.run()
        assert store.count("objects") == 15
        assert store.write_ops < 15  # batched

    def test_nonpersistent_never_touches_store(self, env):
        dht, store, _ = make_dht(env, persistent=False)

        def scenario(env):
            for i in range(10):
                yield dht.put(doc(f"k{i}"), caller="n0")
            yield dht.flush_all()

        run(env, scenario(env))
        assert store is None
        assert dht.write_behind_stats["pending"] == 0

    def test_miss_loads_from_store_and_caches(self, env):
        dht, store, _ = make_dht(env)
        store.put_sync("objects", doc("cold", v=7))

        def scenario(env):
            got = yield dht.get("cold", caller="n0")
            return got

        assert run(env, scenario(env))["state"]["v"] == 7
        assert dht.mem_misses == 1
        assert dht.peek("cold") is not None  # now cached

        def again(env):
            got = yield dht.get("cold", caller="n0")
            return got

        run(env, again(env))
        assert dht.mem_hits == 1

    def test_delete_removes_everywhere(self, env):
        dht, store, _ = make_dht(env)

        def scenario(env):
            yield dht.put(doc("x"), caller="n0")
            yield dht.flush_all()
            yield dht.delete("x", caller="n0")
            got = yield dht.get("x", caller="n0")
            return got

        assert run(env, scenario(env)) is None
        env.run()
        assert store.get_sync("objects", "x") is None


class TestReplication:
    def test_replicas_hold_copies(self, env):
        dht, _, _ = make_dht(env, replication=2)

        def scenario(env):
            yield dht.put(doc("x"), caller="n0")

        run(env, scenario(env))
        owners = dht.owners("x")
        assert len(owners) == 2
        for node in owners:
            assert dht._mem[node]["x"]["id"] == "x"

    def test_replica_local_read(self, env):
        dht, _, network = make_dht(env, replication=2)

        def scenario(env):
            yield dht.put(doc("x"), caller="n0")
            replica = dht.owners("x")[1]
            before = network.remote_transfers
            got = yield dht.get("x", caller=replica)
            return got, network.remote_transfers - before

        got, remote = run(env, scenario(env))
        assert got is not None
        assert remote == 0  # read served from the replica's own memory


class TestOptimisticConcurrency:
    def test_cas_succeeds_on_matching_version(self, env):
        dht, _, _ = make_dht(env)

        def scenario(env):
            yield dht.put(doc("x", version=1), caller="n0")
            yield dht.compare_and_put(doc("x", version=2), expected_version=1, caller="n0")
            got = yield dht.get("x", caller="n0")
            return got

        assert run(env, scenario(env))["version"] == 2

    def test_cas_fails_on_stale_version(self, env):
        dht, _, _ = make_dht(env)

        def scenario(env):
            yield dht.put(doc("x", version=3), caller="n0")
            try:
                yield dht.compare_and_put(doc("x", version=2), expected_version=1, caller="n0")
            except ConcurrentModificationError:
                return "conflict"
            return "committed"

        assert run(env, scenario(env)) == "conflict"

    def test_cas_on_absent_record_expects_zero(self, env):
        dht, _, _ = make_dht(env)

        def scenario(env):
            yield dht.compare_and_put(doc("new", version=1), expected_version=0, caller="n0")
            got = yield dht.get("new", caller="n0")
            return got

        assert run(env, scenario(env))["version"] == 1


class TestLocalityCost:
    def test_local_access_faster_than_remote(self, env):
        dht, _, _ = make_dht(env)

        def timed_get(caller):
            start = env.now
            yield dht.get("x", caller=caller)
            return env.now - start

        def scenario(env):
            yield dht.put(doc("x"), caller="n0")
            owner = dht.owner("x")
            other = next(n for n in dht.nodes if n != owner)
            local = yield env.process(timed_get(owner))
            remote = yield env.process(timed_get(other))
            return local, remote

        local, remote = run(env, scenario(env))
        assert local < remote


class TestSeedAndStats:
    def test_seed_installs_without_time(self, env):
        dht, store, _ = make_dht(env)
        dht.seed(doc("pre", v=1))
        assert env.now == 0.0
        assert dht.peek("pre") is not None
        assert store.get_sync("objects", "pre") is not None

    def test_seed_requires_id(self, env):
        dht, _, _ = make_dht(env)
        with pytest.raises(StorageError):
            dht.seed({"nope": 1})

    def test_write_behind_stats(self, env):
        dht, _, _ = make_dht(env)

        def scenario(env):
            yield dht.put(doc("a"), caller="n0")
            yield dht.put(doc("a", version=2), caller="n0")
            yield dht.flush_all()

        run(env, scenario(env))
        stats = dht.write_behind_stats
        assert stats["enqueued"] == 2
        assert stats["pending"] == 0

    def test_mem_count(self, env):
        dht, _, _ = make_dht(env)
        for i in range(10):
            dht.seed(doc(f"k{i}"))
        assert dht.mem_count() == 10


class TestDeleteVsBufferedWrites:
    def test_delete_discards_failover_primary_buffer(self, env):
        # Regression: a sloppy-quorum write during a partition buffers on
        # the FAILOVER owner's queue; delete used to discard only from
        # owners[0]'s queue, so the flush resurrected the deleted object.
        dht, store, network = make_dht(env, nodes=3, replication=2, linger=5.0)

        def scenario(env):
            key = "obj"
            owners = dht.owners(key)
            network.fault_state().isolate([owners[0]])
            yield dht.put(doc(key), caller=owners[1])  # buffers on owners[1]
            network.fault_state().clear_partition()
            yield dht.delete(key, caller=owners[1])
            yield dht.flush_all()

        run(env, scenario(env))
        assert store.count("objects") == 0
        assert dht.write_behind_stats["pending"] == 0


class TestFailNodeLossAccounting:
    def test_loss_exact_under_store_faults(self, env):
        # lost_pending must cover both the buffered docs AND the batch
        # the flusher holds in its retry loop when the node crashes.
        dht, store, network = make_dht(env, nodes=2, linger=0.01, batch=10)
        victim = dht.nodes[0]
        keys = [k for k in (f"k{i}" for i in range(200)) if dht.owner(k) == victim]
        assert len(keys) >= 5
        keys = keys[:5]
        store.set_write_fault(1.0)

        def scenario(env):
            for key in keys[:3]:
                yield dht.put(doc(key), caller=victim)
            yield env.timeout(0.3)  # flusher pops a batch; every write faults
            for key in keys[3:]:
                yield dht.put(doc(key), caller=victim)
            # Snapshot before the crash removes the victim's queue.
            before = dht.write_behind_stats
            return dht.fail_node(victim), before

        stats, before = run(env, scenario(env))
        assert before["flush_failures"] >= 1  # a batch really was in flight
        assert before["pending"] < 5  # ... so not all five were buffered
        assert stats["lost_pending"] == 5
        store.clear_write_fault()
        env.run(until=10.0)
        assert store.count("objects") == 0  # nothing leaks out post-crash
