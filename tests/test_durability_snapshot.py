"""Consistent cuts, incremental generations, GC, and point-in-time
restore, exercised through a real platform (DHT + write-behind + store)."""

import json

import pytest

from repro.chaos import FaultPlan, NodeCrash, StorageFaults
from repro.durability.plane import DurabilityConfig
from repro.durability.snapshot import data_key, epoch_key, manifest_key
from repro.errors import SnapshotNotFoundError, ValidationError
from repro.platform.oparaca import Oparaca

from tests.helpers import make_platform

DURA_YAML = """
name: dura-app
classes:
  - name: Ledger
    constraint: {persistence: strong}
    keySpecs: [{name: count, type: INT, default: 0}]
    functions:
      - name: bump
        image: t/bump
  - name: Cart
    constraint: {persistence: standard}
    keySpecs: [{name: count, type: INT, default: 0}]
    functions:
      - name: bump
        image: t/bump
  - name: Scratch
    constraint: {persistence: none}
    keySpecs: [{name: count, type: INT, default: 0}]
    functions:
      - name: bump
        image: t/bump
"""


def bump(ctx):
    ctx.state["count"] = int(ctx.state.get("count") or 0) + 1
    return {"count": ctx.state["count"]}


def dura_platform(**config_kwargs) -> Oparaca:
    """Platform with the plane on but the periodic loop effectively idle
    (huge interval), so tests control every cut explicitly."""
    config_kwargs.setdefault("default_interval_s", 1000.0)
    return make_platform(
        DURA_YAML,
        {"t/bump": (bump, 0.001)},
        nodes=3,
        seed=5,
        events_enabled=True,
        durability=DurabilityConfig(enabled=True, **config_kwargs),
    )


def take_cut(platform, cls):
    response = platform.http("POST", f"/api/classes/{cls}/snapshots")
    assert response.status in (200, 201), response.body
    return response.body


class TestCuts:
    def test_cut_captures_dirty_objects_then_skips_when_clean(self):
        platform = dura_platform()
        a = platform.new_object("Cart")
        b = platform.new_object("Cart")
        platform.invoke(a, "bump")
        platform.invoke(b, "bump")
        body = take_cut(platform, "Cart")
        assert body["generation"] == 1
        assert body["captured"] == 2
        # Nothing changed since: the second cut is a no-op.
        again = platform.http("POST", "/api/classes/Cart/snapshots")
        assert again.status == 200 and again.body["generation"] is None
        tracker = platform.durability.tracker_for("Cart")
        assert tracker.cuts_taken == 1 and tracker.cuts_skipped == 1
        platform.shutdown()

    def test_incremental_index_points_at_owning_generation(self):
        platform = dura_platform()
        a = platform.new_object("Cart", object_id="cart-a")
        b = platform.new_object("Cart", object_id="cart-b")
        take_cut(platform, "Cart")
        platform.invoke(a, "bump")
        body = take_cut(platform, "Cart")
        assert body["generation"] == 2 and body["captured"] == 1
        tracker = platform.durability.tracker_for("Cart")
        assert tracker.index[a][0] == 2
        assert tracker.index[b][0] == 1  # untouched bytes stay in gen 1
        store = platform.durability.object_store
        bucket = platform.durability.config.bucket
        for generation in (1, 2):
            assert store.head_object(bucket, data_key("Cart", generation))
            assert store.head_object(bucket, manifest_key("Cart", generation))
        platform.shutdown()

    def test_stored_manifests_keep_their_bytes_and_restore_by_them(self):
        """The cut hands its index to the manifest as it is (no re-sort,
        no re-boxing): the stored bytes must stay what sorting and
        boxing every live entry produced, across creates, updates, a
        delete and objects no cut after their first touches.

        Pinned for manifest format 2: a full checkpoint's bytes are the
        format-1 bytes plus ``format`` and a null ``base``; a delta's
        ``index`` is the entries its cut changed, listed here."""
        platform = dura_platform()
        tracker = platform.durability.tracker_for("Cart")
        store = platform.durability.object_store
        bucket = platform.durability.config.bucket
        # Ids chosen so insertion order is not sorted order.
        ids = [
            platform.new_object("Cart", object_id=name)
            for name in ("cart-m", "cart-b", "cart-z", "cart-a")
        ]
        m, b, z, a = ids
        expected = []  # (generation, manifest bytes, {id: count}) per cut

        def cut(captured, tombstones, counts, delta=None):
            body = take_cut(platform, "Cart")
            entry = tracker.generations[-1]
            assert body["generation"] == entry["generation"]
            manifest = {
                "cls": "Cart",
                "generation": entry["generation"],
                "cut_time": entry["cut_time"],
                "seq": tracker.seq,
                "format": 2,
                "base": None,
                "index": {key: list(ref) for key, ref in sorted(tracker.index.items())},
                "captured": sorted(captured),
                "tombstones": sorted(tombstones),
            }
            if delta is not None:
                manifest["base"], manifest["index"] = delta
            expected.append(
                (entry["generation"], json.dumps(manifest, sort_keys=True).encode(), counts)
            )

        cut(ids, [], {m: 0, b: 0, z: 0, a: 0})
        platform.advance(1.0)
        platform.invoke(z, "bump")
        platform.invoke(b, "bump")
        platform.invoke(z, "bump")
        late = platform.new_object("Cart", object_id="cart-c")
        # 3 changed entries against 5 live: a delta on generation 1.
        cut(
            [z, b, late], [], {m: 0, b: 1, z: 2, a: 0, late: 0},
            delta=(1, {b: [2, 2], late: [2, 1], z: [2, 3]}),
        )
        second_cut_time = tracker.generations[-1]["cut_time"]
        platform.advance(1.0)
        platform.delete_object(m)
        platform.invoke(late, "bump")
        # 3 + 2 entries in deltas now match the 5 live: a checkpoint.
        cut([late], [m], {b: 1, z: 2, a: 0, late: 1})

        assert [generation for generation, _, _ in expected] == [1, 2, 3]
        for generation, manifest_bytes, _ in expected:
            stored = store.get_object(bucket, manifest_key("Cart", generation)).data
            assert stored == manifest_bytes
        assert tracker.commits == {}  # every commit so far is covered by a cut

        platform.invoke(a, "bump")
        summary = platform.run(
            platform.durability.restore_class("Cart", at=second_cut_time + 0.5)
        )
        assert summary["generation"] == 2
        counts = expected[1][2]
        runtime = platform.crm.runtime("Cart")
        assert sorted(runtime.dht.scan_ids()) == sorted(counts)
        for object_id, count in counts.items():
            assert platform.get_object(object_id)["state"]["count"] == count
        platform.shutdown()

    def test_delete_tombstones_drop_object_from_next_cut(self):
        platform = dura_platform()
        a = platform.new_object("Cart")
        b = platform.new_object("Cart")
        take_cut(platform, "Cart")
        platform.delete_object(a)
        body = take_cut(platform, "Cart")
        tracker = platform.durability.tracker_for("Cart")
        assert a not in tracker.index and b in tracker.index
        assert body["captured"] == 0
        platform.shutdown()

    def test_strong_class_epoch_writes_every_commit(self):
        platform = dura_platform()
        obj = platform.new_object("Ledger")
        for _ in range(3):
            platform.invoke(obj, "bump")
        tracker = platform.durability.tracker_for("Ledger")
        assert tracker.epoch_writes >= 4  # create + three bumps
        store = platform.durability.object_store
        bucket = platform.durability.config.bucket
        assert store.head_object(bucket, epoch_key("Ledger", obj))
        platform.shutdown()

    def test_none_class_gets_no_tracker(self):
        platform = dura_platform()
        obj = platform.new_object("Scratch")
        platform.invoke(obj, "bump")
        assert platform.durability.tracker_for("Scratch") is None
        assert platform.durability.policy_for("Scratch").enabled is False
        with pytest.raises(ValidationError):
            platform.durability._tracker("Scratch")
        platform.shutdown()

    def test_commits_are_counted_and_snapshot_events_recorded(self):
        platform = dura_platform()
        obj = platform.new_object("Cart")
        tracker = platform.durability.tracker_for("Cart")
        before = tracker.commits_recorded
        platform.invoke(obj, "bump")
        assert tracker.commits_recorded == before + 1
        assert tracker.commit_history(obj)[-1][1] == platform.get_object(obj)["version"]
        take_cut(platform, "Cart")
        # A commit is a ``state.commit`` span and a count, not an event:
        # the tracker's side table is its one history.
        assert platform.platform_events("durability.commit") == []
        snapshots = platform.platform_events("durability.snapshot")
        assert snapshots and snapshots[-1].fields["cls"] == "Cart"
        platform.shutdown()


class TestGc:
    def test_unreferenced_generations_past_retention_are_deleted(self):
        platform = dura_platform(default_retention_s=5.0)
        a = platform.new_object("Cart", object_id="cart-a")
        b = platform.new_object("Cart", object_id="cart-b")
        take_cut(platform, "Cart")  # gen 1 holds both
        platform.invoke(a, "bump")
        platform.invoke(b, "bump")
        take_cut(platform, "Cart")  # gen 2 re-captures both; gen 1 unreferenced
        platform.advance(10.0)
        platform.invoke(a, "bump")
        take_cut(platform, "Cart")  # gen 3; gen 1 old + unreferenced -> GC
        tracker = platform.durability.tracker_for("Cart")
        retained = [entry["generation"] for entry in tracker.generations]
        assert 1 not in retained
        assert tracker.gc_generations == 1
        store = platform.durability.object_store
        bucket = platform.durability.config.bucket
        assert store.head_object(bucket, data_key("Cart", 1)) is None
        platform.shutdown()

    def test_referenced_generation_survives_past_retention(self):
        platform = dura_platform(default_retention_s=5.0)
        a = platform.new_object("Cart", object_id="cart-a")
        b = platform.new_object("Cart", object_id="cart-b")
        take_cut(platform, "Cart")  # gen 1 holds a and b
        platform.advance(10.0)
        platform.invoke(a, "bump")
        take_cut(platform, "Cart")  # gen 2: only a; b's bytes still in gen 1
        tracker = platform.durability.tracker_for("Cart")
        retained = [entry["generation"] for entry in tracker.generations]
        assert retained == [1, 2]  # old but referenced -> kept
        assert tracker.gc_generations == 0
        platform.shutdown()


class TestRestore:
    def test_class_restore_rolls_back_to_cut(self):
        platform = dura_platform()
        a = platform.new_object("Cart")
        b = platform.new_object("Cart")
        platform.invoke(a, "bump")
        platform.invoke(b, "bump")
        take_cut(platform, "Cart")
        platform.invoke(a, "bump")
        platform.invoke(a, "bump")
        created_after = platform.new_object("Cart")
        response = platform.http("POST", "/api/classes/Cart/restore")
        assert response.status == 200
        assert response.body["restored"] == 2
        assert response.body["purged"] == 1
        assert platform.get_object(a)["state"]["count"] == 1
        assert platform.get_object(b)["state"]["count"] == 1
        missing = platform.http("GET", f"/api/objects/{created_after}")
        assert missing.status == 404
        platform.shutdown()

    def test_point_in_time_picks_latest_cut_at_or_before(self):
        platform = dura_platform()
        a = platform.new_object("Cart")
        platform.invoke(a, "bump")
        take_cut(platform, "Cart")
        first_cut_time = platform.durability.tracker_for("Cart").generations[-1][
            "cut_time"
        ]
        platform.advance(1.0)
        platform.invoke(a, "bump")
        take_cut(platform, "Cart")
        platform.invoke(a, "bump")
        response = platform.http(
            "POST", "/api/classes/Cart/restore", {"at": first_cut_time + 0.5}
        )
        assert response.status == 200
        assert response.body["generation"] == 1
        assert platform.get_object(a)["state"]["count"] == 1
        platform.shutdown()

    def test_restore_before_first_cut_is_snapshot_not_found(self):
        platform = dura_platform()
        a = platform.new_object("Cart")
        platform.invoke(a, "bump")
        take_cut(platform, "Cart")
        response = platform.http("POST", "/api/classes/Cart/restore", {"at": -1.0})
        assert response.status == 404
        assert response.body["type"] == "SnapshotNotFoundError"
        platform.shutdown()

    def test_object_restore_leaves_other_objects_alone(self):
        platform = dura_platform()
        a = platform.new_object("Cart")
        b = platform.new_object("Cart")
        platform.invoke(a, "bump")
        platform.invoke(b, "bump")
        take_cut(platform, "Cart")
        platform.invoke(a, "bump")
        platform.invoke(b, "bump")
        response = platform.http(
            "POST", "/api/classes/Cart/restore", {"object": a}
        )
        assert response.status == 200 and response.body["object"] == a
        assert platform.get_object(a)["state"]["count"] == 1
        assert platform.get_object(b)["state"]["count"] == 2
        platform.shutdown()

    def test_object_absent_from_manifest_is_snapshot_not_found(self):
        platform = dura_platform()
        a = platform.new_object("Cart")
        platform.invoke(a, "bump")
        take_cut(platform, "Cart")
        ghost = platform.new_object("Cart")
        response = platform.http(
            "POST", "/api/classes/Cart/restore", {"object": ghost}
        )
        assert response.status == 404
        assert response.body["type"] == "SnapshotNotFoundError"
        platform.shutdown()

    def test_restore_discards_commit_history(self):
        platform = dura_platform()
        a = platform.new_object("Cart")
        platform.invoke(a, "bump")
        take_cut(platform, "Cart")
        platform.invoke(a, "bump")
        tracker = platform.durability.tracker_for("Cart")
        assert tracker.commit_history(a)
        platform.http("POST", "/api/classes/Cart/restore")
        assert tracker.commits == {}
        assert tracker.commit_history(a) == []
        platform.shutdown()

    def test_direct_restore_raises_typed_error(self):
        platform = dura_platform()
        platform.new_object("Cart")
        with pytest.raises(SnapshotNotFoundError):
            platform.run(platform.durability.restore_class("Cart"))
        platform.shutdown()


class TestCutAcrossRejoin:
    def test_node_rejoining_during_a_stuck_cut_does_not_break_the_fence(self):
        # The cut holds writes and drains every write-behind queue, then
        # waits on a store that fails every write; the owner crashes and
        # rejoins (a new queue) before the store heals and the cut
        # releases its hold.
        platform = make_platform(
            DURA_YAML,
            {"t/bump": (bump, 0.001)},
            nodes=3,
            seed=5,
            events_enabled=True,
            durability=DurabilityConfig(enabled=True, default_interval_s=0.5),
        )
        obj = platform.new_object("Cart", object_id="cart-0")
        owner = platform.crm.runtime("Cart").dht.owner(obj)
        platform.inject_chaos(
            FaultPlan(
                "cut-across-rejoin",
                (
                    StorageFaults(at=0.5, duration_s=3.0, error_rate=1.0),
                    NodeCrash(at=2.0, node=owner, duration_s=1.0),
                ),
            )
        )
        while platform.now < 6.0:
            platform.invoke(obj, "bump", raise_on_error=False)
            platform.advance(0.1)
        assert platform.invoke(obj, "bump").ok
        cuts = platform.platform_events("durability.snapshot")
        assert cuts and cuts[-1].at > 3.5  # cuts resume once the store heals
