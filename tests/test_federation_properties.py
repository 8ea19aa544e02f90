"""Property-based tests (hypothesis) for the federation plane: the
placement scorer's determinism and constraint-safety, geo-routing's
memo against the expression it memoises, and the migration protocol's
version monotonicity / exactly-once visibility."""

from __future__ import annotations

import string
from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.federation import FederationConfig, PlacementPlanner, Zone, ZoneTopology
from repro.federation.plane import FederationPlane
from repro.model.nfr import Constraint, NonFunctionalRequirements, QosRequirement
from repro.orchestrator.cluster import Cluster
from repro.sim.kernel import Environment
from repro.sim.network import Network, NetworkModel

from tests.helpers import make_platform

zone_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
tiers = st.sampled_from(("edge", "regional", "core"))


@st.composite
def topologies(draw):
    """A topology of 2–5 uniquely named zones plus a partial RTT matrix."""
    names = draw(
        st.lists(zone_names, min_size=2, max_size=5, unique=True)
    )
    zones = tuple(Zone(name, tier=draw(tiers)) for name in names)
    rtt = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if draw(st.booleans()):
                rtt.append((a, b, draw(st.floats(0.001, 0.2))))
    return zones, tuple(rtt)


def build_planner(zones, rtt, nodes_per_zone, mode="nfr"):
    cluster = Cluster(Environment())
    for index in range(nodes_per_zone * len(zones)):
        zone = zones[index % len(zones)]
        cluster.add_node(f"vm-{index}", labels={"region": zone.name})
    topology = ZoneTopology(zones, rtt)
    return PlacementPlanner(cluster, topology, mode=mode)


class TestPlannerProperties:
    @given(topo=topologies(), latency=st.none() | st.floats(1, 100))
    @settings(max_examples=50)
    def test_plan_is_deterministic(self, topo, latency):
        zones, rtt = topo
        nfr = NonFunctionalRequirements(qos=QosRequirement(latency_ms=latency))
        plans = [
            build_planner(zones, rtt, nodes_per_zone=2).plan(nfr)
            for _ in range(3)
        ]
        assert plans[0] == plans[1] == plans[2]

    @given(
        topo=topologies(),
        latency=st.none() | st.floats(1, 100),
        pick=st.integers(0, 4),
    )
    @settings(max_examples=50)
    def test_plan_never_violates_jurisdiction(self, topo, latency, pick):
        zones, rtt = topo
        allowed_zone = zones[pick % len(zones)]
        nfr = NonFunctionalRequirements(
            qos=QosRequirement(latency_ms=latency),
            constraint=Constraint(jurisdictions=(allowed_zone.name,)),
        )
        planner = build_planner(zones, rtt, nodes_per_zone=2)
        for node in planner.plan(nfr):
            assert planner.zone_of_node(node).name == allowed_zone.name

    @given(topo=topologies(), latency=st.none() | st.floats(1, 100))
    @settings(max_examples=50)
    def test_plan_nodes_exist_and_are_unique(self, topo, latency):
        zones, rtt = topo
        nfr = NonFunctionalRequirements(qos=QosRequirement(latency_ms=latency))
        planner = build_planner(zones, rtt, nodes_per_zone=2)
        plan = planner.plan(nfr)
        assert len(plan) == len(set(plan))
        assert set(plan) <= set(planner.cluster.node_names)

    @given(topo=topologies())
    @settings(max_examples=50)
    def test_latency_nfr_pins_to_lowest_tier(self, topo):
        zones, rtt = topo
        nfr = NonFunctionalRequirements(qos=QosRequirement(latency_ms=10.0))
        planner = build_planner(zones, rtt, nodes_per_zone=2)
        plan = planner.plan(nfr)
        lowest = min(zone.tier_rank for zone in zones)
        assert plan and all(
            planner.zone_of_node(node).tier_rank == lowest for node in plan
        )

    @given(topo=topologies())
    @settings(max_examples=50)
    def test_core_only_mode_pins_to_highest_tier(self, topo):
        zones, rtt = topo
        nfr = NonFunctionalRequirements(qos=QosRequirement(latency_ms=10.0))
        planner = build_planner(zones, rtt, nodes_per_zone=2, mode="core-only")
        plan = planner.plan(nfr)
        highest = max(zone.tier_rank for zone in zones)
        assert plan and all(
            planner.zone_of_node(node).tier_rank == highest for node in plan
        )

    @given(
        near=st.floats(0.001, 0.019),
        far=st.floats(0.021, 0.2),
    )
    @settings(max_examples=50)
    def test_prefers_lower_latency_zone_when_tiers_tie(self, near, far):
        # Three same-tier zones: the planner must lead with the most
        # central one (lowest mean RTT to the other candidate zones).
        zones = (Zone("a"), Zone("b"), Zone("c"))
        rtt = (("a", "b", near), ("b", "c", near), ("a", "c", far))
        planner = build_planner(zones, rtt, nodes_per_zone=1)
        plan = planner.plan(NonFunctionalRequirements())
        # "b" sits near both others; "a"/"c" each have one far edge.
        assert planner.zone_of_node(plan[0]).name == "b"


class TestGeoRouteProperties:
    @given(topo=topologies(), data=st.data())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_memoised_route_equals_the_fresh_ranking(self, topo, data):
        zones, rtt = topo
        env = Environment()
        cluster = Cluster(env)
        nodes = [f"vm-{index}" for index in range(2 * len(zones))]
        for index, node in enumerate(nodes):
            cluster.add_node(node, labels={"region": zones[index % len(zones)].name})
        network = Network(env, NetworkModel(), region_of=cluster.region_of)
        fed = FederationPlane(
            env, cluster, network, crm=None,
            config=FederationConfig(enabled=True, zones=zones, zone_rtt_s=rtt),
        )

        def reference(owners, origin):
            # The ranking as written before it was memoised.
            def leg(node):
                zone = fed.planner.zone_of_node(node)
                return fed.zone_rtt_s(origin, zone.name if zone else None)

            return owners[min(range(len(owners)), key=lambda i: (leg(owners[i]), i))]

        owner_orders = st.lists(st.sampled_from(nodes), min_size=1, max_size=4, unique=True)
        origins = st.sampled_from([zone.name for zone in zones])
        queries = data.draw(
            st.lists(st.tuples(owner_orders.map(tuple), origins), min_size=1, max_size=8)
        )

        def ask_all():
            for owners, origin in queries:
                dht = SimpleNamespace(owners=lambda _key: owners)  # a DHT's one question
                expected = reference(owners, origin)
                # Asked twice: the second answer is the remembered one.
                assert fed.route(dht, "k", origin) == expected
                assert fed.route(dht, "k", origin) == expected

        ask_all()
        for _ in range(data.draw(st.integers(0, 3))):
            # A node fails and rejoins under another zone's label: every
            # remembered answer that involved it may have changed.
            moved = data.draw(st.sampled_from(nodes))
            cluster.remove_node(moved)
            fed.node_failed(moved, {})
            cluster.add_node(moved, labels={"region": data.draw(origins)})
            ask_all()


MIG_YAML = """
name: mig-app
classes:
  - name: Counter
    keySpecs: [{name: n, type: INT, default: 0}]
    functions: [{name: bump, image: m/bump}]
"""

MIG_ZONES = (
    Zone("edge-a", tier="edge"),
    Zone("region-a", tier="regional"),
    Zone("core", tier="core"),
)


def _bump(ctx):
    ctx.state["n"] = int(ctx.state.get("n") or 0) + 1
    return {"n": ctx.state["n"]}


def migration_platform(seed):
    return make_platform(
        MIG_YAML,
        {"m/bump": (_bump, 0.002)},
        nodes=6,
        seed=seed,
        regions=("edge-a", "region-a", "core"),
        federation=FederationConfig(enabled=True, zones=MIG_ZONES),
    )


class TestMigrationProperties:
    @given(
        seed=st.integers(0, 2**16),
        hops=st.lists(
            st.sampled_from(("edge-a", "region-a", "core")), min_size=1, max_size=4
        ),
        writes_between=st.integers(0, 3),
    )
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    def test_version_monotone_and_exactly_once(self, seed, hops, writes_between):
        platform = migration_platform(seed)
        obj = platform.new_object("Counter", object_id="c-1")
        acked = 0
        last_version = 0
        for zone in hops:
            for _ in range(writes_between):
                if platform.invoke(obj, "bump", {}).ok:
                    acked += 1
            summary = platform.migrate_object(obj, zone, cls="Counter")
            # Version never regresses across a handoff, and the owner
            # lands in the requested zone.
            assert summary["version"] >= last_version
            last_version = summary["version"]
            assert summary["target_zone"] == zone
            owner = platform.crm.dht_for("Counter").owner(obj)
            assert platform.federation.planner.zone_of_node(owner).name == zone
        for _ in range(writes_between):
            if platform.invoke(obj, "bump", {}).ok:
                acked += 1
        # Exactly-once visibility: every acknowledged increment is
        # present, no duplicates, regardless of the migration path.
        assert platform.get_object(obj)["state"]["n"] == acked
        platform.shutdown()
