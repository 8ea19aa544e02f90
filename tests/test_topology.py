"""The cluster owns one zone topology: flat ``regions=`` is its one-tier
(open) case, a declared hierarchy its closed case, and everything that
remembers an answer per node name is forgotten where membership changes
— in ``Cluster.add_node`` / ``remove_node`` themselves."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos import FaultPlan, NodeCrash
from repro.errors import ValidationError
from repro.federation import FederationConfig, Zone

from tests.helpers import make_platform
from tests.test_federation import RTT, THREE_TIER, fed_platform


def _touch(ctx):
    ctx.state["n"] = int(ctx.state.get("n") or 0) + 1
    return {"n": ctx.state["n"]}


def package(jurisdiction):
    return f"""
name: tiers
classes:
  - name: Pinned
    constraint: {{jurisdictions: [{jurisdiction}]}}
    keySpecs: [{{name: n, type: INT, default: 0}}]
    functions: [{{name: touch, image: t/touch}}]
  - name: Free
    keySpecs: [{{name: n, type: INT, default: 0}}]
    functions: [{{name: touch, image: t/touch}}]
"""


def build(names, nodes, seed, **config):
    return make_platform(
        package(names[0]),
        {"t/touch": (_touch, 0.002)},
        nodes=nodes,
        seed=seed,
        events_enabled=True,
        **config,
    )


def placements(platform):
    return {
        cls: (
            sorted(runtime.dht.nodes),
            runtime.services["touch"].deployment.node_hints,
        )
        for cls, runtime in platform.crm.runtimes.items()
    }


def transfer_delays(platform):
    env, network = platform.env, platform.network
    nodes = platform.cluster.node_names
    delays = {}
    for src in nodes:
        for dst in nodes:
            started = env.now
            env.run(until=network.transfer(src, dst, 512))
            delays[src, dst] = env.now - started
    return delays


def invoke_script(platform, seed):
    ids = [
        platform.new_object(cls, object_id=f"{cls.lower()}-{index}")
        for cls in ("Pinned", "Free")
        for index in range(3)
    ]
    for step in range(12):
        assert platform.invoke(ids[(seed + 5 * step) % len(ids)], "touch").ok
    platform.flush()
    return [event.to_dict() for event in platform.platform_events()]


class TestFlatIsTheOneTierCase:
    @given(
        names=st.lists(
            st.sampled_from(("eu", "us", "ap", "sa", "af")),
            min_size=1, max_size=4, unique=True,
        ),
        nodes=st.integers(3, 6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_regions_and_untiered_zones_are_the_same_platform(self, names, nodes, seed):
        zones = tuple(Zone(name) for name in names)
        flat = build(names, nodes, seed, regions=tuple(names))
        zoned = build(names, nodes, seed, federation=FederationConfig(zones=zones))
        ranked = build(
            names, nodes, seed, federation=FederationConfig(enabled=True, zones=zones)
        )
        assert flat.cluster.topology.open and not zoned.cluster.topology.open
        assert placements(zoned) == placements(flat)
        # The plane adds a ranking (and so pod hints for every class),
        # never a different node domain.
        assert {cls: nodes for cls, (nodes, _) in placements(ranked).items()} == {
            cls: nodes for cls, (nodes, _) in placements(flat).items()
        }
        assert transfer_delays(zoned) == transfer_delays(flat) == transfer_delays(ranked)
        assert invoke_script(zoned, seed) == invoke_script(flat, seed)
        for platform in (flat, zoned, ranked):
            platform.shutdown()

    def test_zones_label_the_nodes_when_regions_is_omitted(self):
        spelled = fed_platform()  # regions=("edge-a", "region-a", "core") by hand
        omitted = make_platform(nodes=6, federation=spelled.config.federation)
        labels = [omitted.cluster.region_of(n) for n in omitted.cluster.node_names]
        assert labels == ["edge-a", "region-a", "core"] * 2
        assert labels == [spelled.cluster.region_of(n) for n in spelled.cluster.node_names]

    def test_a_platform_builds_one_topology_and_everyone_reads_it(self):
        platform = fed_platform()
        topology = platform.cluster.topology
        assert platform.network.topology is topology
        assert platform.federation.topology is topology
        assert platform.federation.planner.topology is topology
        assert topology.default_rtt_s == platform.config.network.inter_region_rtt_s
        assert topology.cross_rtt_s("edge-a", "core") == 0.08


class TestClosedTopologyRefusesUnknownLabels:
    def test_facade_add_node_with_a_typo_is_a_validation_error(self):
        platform = fed_platform()
        with pytest.raises(ValidationError, match="names no declared zone") as caught:
            platform.add_node("vm-9", region="egde-a")
        assert "known zones: ['core', 'edge-a', 'region-a']" in str(caught.value)
        assert "vm-9" not in platform.cluster.node_names
        assert platform.cluster.regions == ("core", "edge-a", "region-a")
        assert all("vm-9" not in r.dht.nodes for r in platform.crm.runtimes.values())

    def test_cluster_add_node_is_covered_by_the_same_check(self):
        platform = fed_platform()
        with pytest.raises(ValidationError, match="names no declared zone"):
            platform.cluster.add_node("vm-9", labels={"region": "mars"})
        platform.cluster.add_node("vm-9", labels={"region": "core"})
        platform.cluster.add_node("vm-10")  # unlabelled nodes stay legal

    def test_a_flat_topology_is_open(self):
        platform = make_platform(nodes=2, regions=("eu",))
        platform.add_node("vm-us", region="us")
        assert platform.cluster.regions == ("eu", "us")
        assert platform.cluster.nodes_in_regions(("us",)) == ["vm-us"]

    def test_node_crash_recovery_rejoins_under_the_remembered_zone(self):
        platform = fed_platform()
        platform.inject_chaos(
            FaultPlan("crash", (NodeCrash(at=0.1, duration_s=0.5, node="vm-2"),))
        )
        platform.advance(0.3)
        assert "vm-2" not in platform.cluster.node_names
        platform.advance(1.0)
        assert platform.cluster.region_of("vm-2") == "core"


class TestRelabelBehindTheFacade:
    """``cluster.remove_node`` + ``cluster.add_node`` with no facade
    call: nothing remembered about the old zone survives."""

    def timed_transfer(self, platform, src, dst):
        started = platform.now
        platform.env.run(until=platform.network.transfer(src, dst))
        return platform.now - started

    def test_the_next_transfer_pays_the_new_zone_pair(self):
        platform = fed_platform()
        rtt_s = platform.config.network.rtt_s
        assert self.timed_transfer(platform, "vm-0", "vm-2") == pytest.approx(0.08)
        platform.cluster.remove_node("vm-2")
        platform.cluster.add_node("vm-2", labels={"region": "edge-a"})
        assert self.timed_transfer(platform, "vm-0", "vm-2") == pytest.approx(rtt_s)
        platform.cluster.remove_node("vm-2")
        platform.cluster.add_node("vm-2", labels={"region": "region-a"})
        assert self.timed_transfer(platform, "vm-0", "vm-2") == pytest.approx(0.02)

    def test_the_next_geo_routed_invoke_sees_the_new_zone(self):
        platform = fed_platform()
        fed = platform.federation
        dht = platform.crm.dht_for("Archive")
        # An object on a core node that hosts no pod: taking the node
        # out of the cluster behind the facade then disturbs nothing but
        # what is remembered about its zone.
        obj = next(
            oid
            for oid in (
                platform.new_object("Archive", object_id=f"arc-{i}") for i in range(40)
            )
            if platform.cluster.region_of(dht.owner(oid)) == "core"
            and not platform.cluster.node(dht.owner(oid)).pods
        )
        owner = dht.owner(obj)

        def invoke_from_edge():
            response = platform.http(
                "POST",
                f"/api/objects/{obj}/invokes/bump",
                {},
                headers={"x-origin-zone": "edge-a"},
            )
            assert response.status == 200
            return fed.class_stats("Archive")["cross_zone"]

        assert invoke_from_edge() == 1  # edge-a client, core replica
        platform.cluster.remove_node(owner)
        platform.cluster.add_node(owner, labels={"region": "edge-a"})
        assert dht.owner(obj) == owner
        assert fed.planner.zone_of_node(fed.route(dht, obj, "edge-a")).name == "edge-a"
        assert invoke_from_edge() == 1  # same replica, now in the client's zone


def test_rtt_fallback_lives_in_the_topology():
    from repro.federation import ZoneTopology

    topology = ZoneTopology(THREE_TIER, RTT[:1], default_rtt_s=0.5)
    assert topology.cross_rtt_s("edge-a", "region-a") == 0.02
    assert topology.cross_rtt_s("core", "edge-a") == 0.5
    assert topology.rtt_s("core", "edge-a") is None
