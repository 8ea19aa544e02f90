"""Manifest format 2: delta chains, checkpoints, GC — and the format-1
manifests a store may still hold.

A property drives random create / update / delete / cut / advance /
restore sequences through a real platform, with and without retention,
against a reference fold of the history: whatever generation is still
restorable restores to exactly what was live at its cut, and no restore
ever meets a missing manifest or data blob.  A hand-written chain of
format-1 manifests (the bytes the code before format 2 stored for the
scenario of ``test_stored_manifests_keep_their_bytes_and_restore_by_them``)
restores by class and by object.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.durability.snapshot import data_key, manifest_key

from tests.test_durability_snapshot import dura_platform

POOL = [f"Cart~c-{n}" for n in range(4)]

_TOUCH = st.tuples(st.just("touch"), st.integers(0, len(POOL) - 1))
_CUT = st.tuples(st.just("cut"), st.just(0))
_ADVANCE = st.tuples(st.just("advance"), st.sampled_from([1, 3]))
OPS = st.lists(
    st.one_of(
        _TOUCH,
        _TOUCH,
        _CUT,
        _CUT,
        _ADVANCE,
        st.tuples(st.just("delete"), st.integers(0, len(POOL) - 1)),
        st.tuples(st.just("restore"), st.integers(0, 7)),
    ),
    max_size=40,
)

T0, T1, T2, T3 = (("touch", n) for n in range(4))
CUT, WAIT = ("cut", 0), ("advance", 3)
#: A generation past retention whose bytes only a *restorable* (not the
#: live) index still references: GC must keep its data blob.
DATA_BEHIND_A_YOUNG_INDEX = [T0, CUT, WAIT, T1, CUT, WAIT, T0, CUT]
#: Deltas past retention that a restorable delta's chain passes through:
#: GC must keep their manifests.
CHAIN_THROUGH_OLD_DELTAS = [T0, T1, T2, T3, CUT, T0, CUT, WAIT, T0, CUT, WAIT, T0, CUT]
#: A delta past retention kept for its blobs only, whose base GC deletes:
#: its entry must claim no chain it no longer has.
BLOBS_BEHIND_A_DELETED_BASE = [T0, T2, CUT, T2, CUT, T0, ("advance", 1), WAIT, CUT]


def live_counts(platform):
    runtime = platform.crm.runtime("Cart")
    return {
        oid: platform.get_object(oid)["state"]["count"]
        for oid in sorted(runtime.dht.scan_ids())
    }


def restorable(tracker):
    return [e for e in tracker.generations if e["generation"] >= tracker.restorable_from]


class TestChainsAgainstAReferenceFold:
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(ops=OPS, retention_s=st.sampled_from([None, 4.0]))
    @example(ops=DATA_BEHIND_A_YOUNG_INDEX, retention_s=4.0)
    @example(ops=CHAIN_THROUGH_OLD_DELTAS, retention_s=4.0)
    @example(ops=BLOBS_BEHIND_A_DELETED_BASE, retention_s=4.0)
    def test_every_retained_cut_restores_to_what_was_live_at_it(self, ops, retention_s):
        platform = dura_platform(default_retention_s=retention_s)
        tracker = platform.durability.tracker_for("Cart")
        live: dict[str, int] = {}  # the reference: object id -> count
        history: dict[int, dict[str, int]] = {}  # generation -> live at its cut

        def restore_to(entry):
            summary = platform.run(
                platform.durability.restore_class("Cart", at=entry["cut_time"])
            )
            assert summary["generation"] == entry["generation"]
            assert live_counts(platform) == history[entry["generation"]]
            return dict(history[entry["generation"]])

        for op, arg in ops:
            if op == "touch":
                oid = POOL[arg]
                if oid in live:
                    platform.invoke(oid, "bump")
                    live[oid] += 1
                else:
                    platform.new_object("Cart", object_id=oid.split("~")[1])
                    live[oid] = 0
            elif op == "delete" and POOL[arg] in live:
                platform.delete_object(POOL[arg])
                del live[POOL[arg]]
            elif op == "cut":
                manifest = platform.run(platform.durability.snapshot_class("Cart"))
                if manifest is not None:
                    history[manifest["generation"]] = dict(live)
            elif op == "advance":
                platform.advance(float(arg))
            elif op == "restore" and restorable(tracker):
                retained = restorable(tracker)
                live = restore_to(retained[arg % len(retained)])

        store = platform.durability.object_store
        bucket = platform.durability.config.bucket
        retained = restorable(tracker)
        # The live index only points at blobs that exist ...
        for generation in {ref[0] for ref in tracker.index.values()}:
            assert store.head_object(bucket, data_key("Cart", generation))
        # ... per-generation counts say what a scan of it would ...
        for entry in tracker.generations:
            assert tracker.refs.get(entry["generation"], 0) == sum(
                ref[0] == entry["generation"] for ref in tracker.index.values()
            )
            assert entry["chain"] == len(tracker.chain(entry))
        # ... and every cut still on offer restores, newest first and then
        # oldest first (a restore moves the live index, never the store).
        for entry in retained[::-1] + retained:
            restore_to(entry)
        platform.shutdown()


#: What the code before format 2 stored for three cuts of class ``Cart``
#: (creates, updates, a late create, a delete): full-index manifests
#: with no ``format`` and no ``base``.
FORMAT_1 = {
    1: (
        b'{"captured": ["Cart~cart-a", "Cart~cart-b", "Cart~cart-m", "Cart~cart-z"], "cls": "Cart", "cut_time": 0.025320652800000003, "generation": 1, "index": {"Cart~cart-a": [1, 1], "Cart~cart-b": [1, 1], "Cart~cart-m": [1, 1], "Cart~cart-z": [1, 1]}, "seq": 4, "tombstones": []}',
        b'{"Cart~cart-a": {"cls": "Cart", "files": {}, "id": "Cart~cart-a", "state": {"count": 0}, "version": 1}, "Cart~cart-b": {"cls": "Cart", "files": {}, "id": "Cart~cart-b", "state": {"count": 0}, "version": 1}, "Cart~cart-m": {"cls": "Cart", "files": {}, "id": "Cart~cart-m", "state": {"count": 0}, "version": 1}, "Cart~cart-z": {"cls": "Cart", "files": {}, "id": "Cart~cart-z", "state": {"count": 0}, "version": 1}}',
    ),
    2: (
        b'{"captured": ["Cart~cart-b", "Cart~cart-c", "Cart~cart-z"], "cls": "Cart", "cut_time": 1.831320671999999, "generation": 2, "index": {"Cart~cart-a": [1, 1], "Cart~cart-b": [2, 2], "Cart~cart-c": [2, 1], "Cart~cart-m": [1, 1], "Cart~cart-z": [2, 3]}, "seq": 8, "tombstones": []}',
        b'{"Cart~cart-b": {"cls": "Cart", "files": {}, "id": "Cart~cart-b", "state": {"count": 1}, "version": 2}, "Cart~cart-c": {"cls": "Cart", "files": {}, "id": "Cart~cart-c", "state": {"count": 0}, "version": 1}, "Cart~cart-z": {"cls": "Cart", "files": {}, "id": "Cart~cart-z", "state": {"count": 2}, "version": 3}}',
    ),
    3: (
        b'{"captured": ["Cart~cart-c"], "cls": "Cart", "cut_time": 2.8589236295999996, "generation": 3, "index": {"Cart~cart-a": [1, 1], "Cart~cart-b": [2, 2], "Cart~cart-c": [3, 2], "Cart~cart-z": [2, 3]}, "seq": 10, "tombstones": ["Cart~cart-m"]}',
        b'{"Cart~cart-c": {"cls": "Cart", "files": {}, "id": "Cart~cart-c", "state": {"count": 1}, "version": 2}}',
    ),
}


def format_1_platform():
    """A platform whose store holds the format-1 chain and whose tracker
    lists it, as if those cuts had been its own."""
    platform = dura_platform()
    tracker = platform.durability.tracker_for("Cart")
    store = platform.durability.object_store
    bucket = platform.durability.config.bucket
    for generation, (manifest_bytes, data_bytes) in FORMAT_1.items():
        store.put_object(bucket, manifest_key("Cart", generation), manifest_bytes)
        store.put_object(bucket, data_key("Cart", generation), data_bytes)
        manifest = json.loads(manifest_bytes)
        assert "format" not in manifest and "base" not in manifest
        tracker.generations.append(
            {
                "generation": generation,
                "cut_time": manifest["cut_time"],
                "captured": len(manifest["captured"]),
                "tombstones": len(manifest["tombstones"]),
                "kind": "full",
                "base": None,
                "chain": 1,
            }
        )
    tracker.next_generation = 4
    tracker.reset_index(
        {key: tuple(ref) for key, ref in manifest["index"].items()},
        base=3,
        delta_entries=0,
    )
    return platform, tracker


class TestFormat1ManifestsStillRestore:
    def test_by_class(self):
        platform, tracker = format_1_platform()
        summary = platform.run(platform.durability.restore_class("Cart", at=2.0))
        assert summary["generation"] == 2 and summary["restored"] == 5
        assert live_counts(platform) == {
            "Cart~cart-a": 0,
            "Cart~cart-b": 1,
            "Cart~cart-c": 0,
            "Cart~cart-m": 0,
            "Cart~cart-z": 2,
        }
        # The next cut is a format-2 delta on the format-1 generation,
        # and the mixed chain restores too.
        platform.invoke("Cart~cart-a", "bump")
        manifest = platform.run(platform.durability.snapshot_class("Cart"))
        assert (manifest["format"], manifest["base"]) == (2, 2)
        assert manifest["index"] == {"Cart~cart-a": (4, 2)}
        platform.invoke("Cart~cart-a", "bump")
        platform.run(platform.durability.restore_class("Cart"))
        assert live_counts(platform)["Cart~cart-a"] == 1
        assert tracker.index["Cart~cart-z"] == (2, 3)
        platform.shutdown()

    def test_by_object(self):
        platform, tracker = format_1_platform()
        platform.run(platform.durability.restore_class("Cart"))  # generation 3
        assert "Cart~cart-m" not in live_counts(platform)
        summary = platform.run(
            platform.durability.restore_object("Cart", "Cart~cart-z", at=1.0)
        )
        assert (summary["generation"], summary["version"]) == (1, 1)
        assert live_counts(platform) == {
            "Cart~cart-a": 0,
            "Cart~cart-b": 1,
            "Cart~cart-c": 1,
            "Cart~cart-z": 0,
        }
        assert tracker.index["Cart~cart-z"] == (1, 1)
        platform.shutdown()
