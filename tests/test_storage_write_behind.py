"""Unit tests for write-behind batching, coalescing, and backpressure."""

import pytest

from repro.errors import StorageError
from repro.storage.kv import DbModel, DocumentStore
from repro.storage.write_behind import WriteBehindConfig, WriteBehindQueue


def make(env, batch_size=10, linger_s=0.01, max_pending=100, capacity=1000.0):
    store = DocumentStore(env, DbModel(capacity_units_per_s=capacity))
    queue = WriteBehindQueue(
        env,
        store,
        "objects",
        WriteBehindConfig(batch_size=batch_size, linger_s=linger_s, max_pending=max_pending),
    )
    return store, queue


class TestConfig:
    def test_batch_size_validation(self, env):
        with pytest.raises(StorageError):
            WriteBehindConfig(batch_size=0)

    def test_linger_validation(self, env):
        with pytest.raises(StorageError):
            WriteBehindConfig(linger_s=-1)

    def test_max_pending_must_cover_batch(self, env):
        with pytest.raises(StorageError):
            WriteBehindConfig(batch_size=100, max_pending=50)


class TestFlushing:
    def test_enqueued_docs_reach_store(self, env):
        store, queue = make(env)
        for i in range(5):
            queue.enqueue({"id": f"k{i}"})
        env.run(until=1.0)
        assert store.count("objects") == 5
        assert queue.pending == 0

    def test_batches_bounded_by_batch_size(self, env):
        store, queue = make(env, batch_size=10, linger_s=0.05)
        for i in range(25):
            queue.enqueue({"id": f"k{i}"})
        env.run(until=2.0)
        assert store.count("objects") == 25
        assert queue.flush_ops >= 3  # at least ceil(25/10)
        assert max(10, queue.docs_flushed // queue.flush_ops) <= 10

    def test_coalescing_last_write_wins(self, env):
        store, queue = make(env, linger_s=0.5)
        queue.enqueue({"id": "hot", "v": 1})
        queue.enqueue({"id": "hot", "v": 2})
        queue.enqueue({"id": "hot", "v": 3})
        env.run(until=2.0)
        assert queue.coalesced == 2
        assert store.count("objects") == 1
        assert store.get_sync("objects", "hot")["v"] == 3
        assert store.docs_written == 1  # one DB write for three updates

    def test_enqueue_requires_id(self, env):
        _, queue = make(env)
        with pytest.raises(StorageError):
            queue.enqueue({"v": 1})

    def test_idle_queue_schedules_nothing(self, env):
        make(env, linger_s=0.01)
        env.run()  # must terminate: flusher blocks on the arrival gate
        assert env.now == 0.0

    def test_drain_flushes_everything_now(self, env):
        store, queue = make(env, batch_size=5, linger_s=10.0)
        for i in range(12):
            queue.enqueue({"id": f"k{i}"})
        env.run(until=env.process(iter_drain(queue)))
        assert store.count("objects") == 12
        assert queue.pending == 0


def iter_drain(queue):
    yield queue.drain()


class TestBackpressure:
    def test_enqueue_blocking_waits_for_space(self, env):
        # Slow store: 1 unit/s, each flush op takes seconds.
        store, queue = make(env, batch_size=2, linger_s=0.0, max_pending=2, capacity=10.0)
        done = []

        def producer(env):
            for i in range(6):
                yield from queue.enqueue_blocking({"id": f"k{i}"})
            done.append(env.now)

        env.process(producer(env))
        env.run(until=10.0)
        assert done, "producer should eventually finish"
        assert done[0] > 0.0  # it had to wait for flushes
        assert queue.blocked_enqueues > 0
        env.run(until=20.0)
        assert store.count("objects") == 6

    def test_coalescing_update_never_blocks(self, env):
        store, queue = make(env, batch_size=2, linger_s=0.0, max_pending=2, capacity=10.0)
        queue.enqueue({"id": "a"})
        queue.enqueue({"id": "b"})

        def producer(env):
            yield from queue.enqueue_blocking({"id": "a", "v": 2})
            return env.now

        at = env.run(until=env.process(producer(env)))
        assert at == 0.0  # coalesced into the buffered 'a' without waiting

    def test_accept_rate_bounded_by_db(self, env):
        # DB does 10 units/s; op_cost 4 + doc 1 => a batch of 2 costs 6
        # units (0.6s) => ~3.3 docs/s sustained.
        store, queue = make(env, batch_size=2, linger_s=0.0, max_pending=2, capacity=10.0)
        accepted = []

        def producer(env):
            index = 0
            while env.now < 30.0:
                yield from queue.enqueue_blocking({"id": f"k{index}"})
                accepted.append(env.now)
                index += 1

        env.process(producer(env))
        env.run(until=30.0)
        rate = len(accepted) / 30.0
        assert rate == pytest.approx(3.3, rel=0.25)


class TestCrashLossAccounting:
    def test_stop_counts_inflight_retry_batch(self, env):
        # Regression: a batch popped by _take_batch() and stuck in the
        # _flush retry loop was dropped uncounted by stop().
        store, queue = make(env, batch_size=10, linger_s=0.01)
        store.set_write_fault(1.0)
        for i in range(3):
            queue.enqueue({"id": f"k{i}"})
        env.run(until=0.2)  # flusher popped the batch; every write faults
        assert queue.flush_failures >= 1
        assert queue.pending == 0  # the three docs are in flight, not buffered
        for i in range(2):
            queue.enqueue({"id": f"x{i}"})
        assert queue.stop() == {"lost": 5}  # 3 in-flight + 2 buffered
        # A repeated stop must not count the same batch again.
        assert queue.stop() == {"lost": 0}
        store.clear_write_fault()
        env.run(until=5.0)
        assert store.count("objects") == 0  # the crash really dropped them

    def test_stop_without_inflight_counts_buffer_only(self, env):
        store, queue = make(env, linger_s=10.0)
        for i in range(4):
            queue.enqueue({"id": f"k{i}"})
        assert queue.stop() == {"lost": 4}


class TestDrainVsRetry:
    def test_drain_not_overtaken_by_retried_batch(self, env):
        # Regression: drain() used to write directly while the flusher
        # held an older batch in its retry loop; once the store healed,
        # the retried (older) version overwrote the newer one the drain
        # had already flushed.  Routing drain through the flusher keeps
        # batches in pop order: v1 lands before v2, last write wins.
        store, queue = make(env, batch_size=5, linger_s=0.01)
        queue.enqueue({"id": "k", "v": 1})
        store.set_write_fault(1.0)
        env.run(until=0.2)  # flusher popped [v1] and is failing/backing off
        assert queue.flush_failures >= 1
        store.clear_write_fault()
        queue.enqueue({"id": "k", "v": 2})
        env.run(until=env.process(iter_drain(queue)))
        assert store.get_sync("objects", "k")["v"] == 2
        assert queue.pending == 0

    def test_drain_waits_for_inflight_retry(self, env):
        store, queue = make(env, batch_size=5, linger_s=0.01)
        queue.enqueue({"id": "a", "v": 1})
        store.set_write_fault(1.0)
        env.run(until=0.1)
        assert queue.pending == 0  # batch is in flight, buffer empty
        store.clear_write_fault()
        # Drain must not resolve before the retried batch is durable.
        env.run(until=env.process(iter_drain(queue)))
        assert store.get_sync("objects", "a")["v"] == 1

    def test_discard_reaches_inflight_batch(self, env):
        # A delete racing a retry must not resurrect the object.
        store, queue = make(env, batch_size=5, linger_s=0.01)
        queue.enqueue({"id": "doomed", "v": 1})
        store.set_write_fault(1.0)
        env.run(until=0.1)
        assert queue.pending == 0  # in the retry loop
        assert queue.discard("doomed") is True
        store.clear_write_fault()
        env.run(until=env.process(iter_drain(queue)))
        assert store.get_sync("objects", "doomed") is None
