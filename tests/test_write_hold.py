"""Snapshot cuts and live migrations share one write hold on the DHT.

A cut and a handoff each take their own hold; commits park until every
holder has released.  These tests pin the two interleavings (a cut
already open when a migration starts, a cut asked for while a migration
holds writes) and a property over short random schedules of periodic
cuts, manual cuts, migrations and bumps: every acknowledged bump is in
the final state exactly once, and the run never aborts.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.durability.plane import DurabilityConfig
from repro.errors import StorageError
from repro.federation import FederationConfig
from repro.invoker.request import InvocationRequest
from repro.sim.kernel import all_of

from tests.helpers import make_platform
from tests.test_federation import RTT, THREE_TIER

HOLD_YAML = """
name: hold-app
classes:
  - name: Cart
    constraint: {persistence: standard}
    keySpecs: [{name: n, type: INT, default: 0}]
    functions:
      - name: bump
        image: f/bump
"""

ZONES = ("edge-a", "region-a", "core")
#: Bumps acknowledged before a schedule starts.
WARM_BUMPS = 3


def _bump(ctx):
    ctx.state["n"] = int(ctx.state.get("n") or 0) + 1
    return {"n": ctx.state["n"]}


def hold_platform(interval_s: float = 1000.0):
    """The three-tier federation with durability on; a long interval
    keeps the periodic loop idle unless a test shortens it."""
    return make_platform(
        HOLD_YAML,
        {"f/bump": (_bump, 0.002)},
        nodes=6,
        seed=7,
        regions=ZONES,
        events_enabled=True,
        federation=FederationConfig(enabled=True, zones=THREE_TIER, zone_rtt_s=RTT),
        durability=DurabilityConfig(enabled=True, default_interval_s=interval_s),
    )


def warm_cart(platform) -> str:
    obj = platform.new_object("Cart", object_id="c-1")
    for _ in range(WARM_BUMPS):
        assert platform.invoke(obj, "bump").ok
    return obj


def other_zone(platform, obj) -> str:
    """A zone the object's primary does not sit in."""
    source = platform.crm.dht_for("Cart").owner(obj)
    here = platform.federation.planner.zone_of_node(source).name
    return "core" if here != "core" else "edge-a"


def bump(platform, obj):
    return platform.engine.invoke(
        InvocationRequest(object_id=obj, fn_name="bump", cls="Cart", payload={})
    )


def final_n(platform, obj) -> int:
    return platform.get_object(obj)["state"]["n"]


class TestCutAndMigrationShareTheHold:
    def test_migration_started_inside_an_open_cut_keeps_every_acked_bump(self):
        platform = hold_platform()
        obj = warm_cart(platform)
        target = other_zone(platform, obj)
        cut = platform.durability.snapshot_class("Cart")
        migration = platform.federation.migrate_object("Cart", obj, target)
        write = bump(platform, obj)
        platform.run(all_of(platform.env, [cut, migration, write]))
        acked = WARM_BUMPS + write.value.ok
        assert acked == WARM_BUMPS + 1
        assert final_n(platform, obj) == acked
        assert cut.value is not None
        assert migration.value["target_zone"] == target

    def test_cut_asked_for_while_a_migration_holds_writes(self):
        platform = hold_platform()
        obj = warm_cart(platform)
        target = other_zone(platform, obj)
        migration = platform.federation.migrate_object("Cart", obj, target)
        platform.advance(0.001)  # the handoff holds writes now
        assert not migration.triggered
        cut = platform.durability.snapshot_class("Cart")
        write = bump(platform, obj)
        platform.run(migration)
        platform.run(all_of(platform.env, [cut, write]))
        manifest = cut.value
        assert manifest is not None
        assert platform.durability.generations("Cart")[-1]["generation"] == (
            manifest["generation"]
        )
        dht = platform.crm.dht_for("Cart")
        assert dht.owner(obj) == migration.value["target"]
        assert platform.federation.planner.zone_of_node(dht.owner(obj)).name == target
        assert write.value.ok
        assert final_n(platform, obj) == WARM_BUMPS + 1

    def test_release_without_a_hold_is_a_typed_error(self):
        platform = hold_platform()
        dht = platform.crm.dht_for("Cart")
        dht.hold_writes()
        dht.hold_writes()
        dht.release_writes()
        dht.release_writes()
        with pytest.raises(StorageError, match="no write hold"):
            dht.release_writes()


#: One scheduled operation: (kind, start offset in simulated seconds).
OPS = st.lists(
    st.tuples(
        st.sampled_from(["cut", "bump", "bump", *(f"migrate:{z}" for z in ZONES)]),
        st.sampled_from([0.0, 0.0, 0.001, 0.004, 0.01, 0.03, 0.07, 0.15]),
    ),
    min_size=1,
    max_size=7,
)


class TestRandomSchedules:
    @seed(20240806)
    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(ops=OPS, interval_s=st.sampled_from([1000.0, 0.02, 0.05, 0.11]))
    def test_every_acknowledged_bump_counts_once(self, ops, interval_s):
        platform = hold_platform(interval_s)
        env = platform.env
        obj = warm_cart(platform)
        writes = []
        running = []

        def launch(kind, at):
            yield env.timeout(at)
            if kind == "cut":
                running.append(platform.durability.snapshot_class("Cart"))
            elif kind == "bump":
                process = bump(platform, obj)
                writes.append(process)
                running.append(process)
            else:
                zone = kind.split(":", 1)[1]
                running.append(platform.federation.migrate_object("Cart", obj, zone))

        launchers = [env.process(launch(kind, at)) for kind, at in ops]
        platform.run(all_of(env, launchers))
        platform.run(all_of(env, running))
        platform.advance(0.5)  # periodic cuts keep firing
        acked = sum(1 for write in writes if write.value.ok)
        assert final_n(platform, obj) == WARM_BUMPS + acked
