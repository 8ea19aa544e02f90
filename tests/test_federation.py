"""End-to-end tests of the federation plane: zone topology, NFR-scored
placement, live object migration, geo-routing/jurisdiction enforcement,
zone-level chaos faults, and the off-by-default baseline guarantee."""

from __future__ import annotations

import pytest

from repro.chaos import FaultPlan, WanDegradation, ZonePartition
from repro.crm.template import ClassRuntimeTemplate, RuntimeConfig, TemplateCatalog
from repro.errors import (
    DeploymentError,
    SchedulingError,
    SimulationError,
    ValidationError,
)
from repro.federation import FederationConfig, Zone, ZoneTopology

from tests.helpers import make_platform

FED_YAML = """
name: fed-app
classes:
  - name: Sensor
    qos: {latency: 20}
    constraint: {jurisdictions: [edge-a, region-a]}
    keySpecs: [{name: n, type: INT, default: 0}]
    functions:
      - name: bump
        image: f/bump
  - name: Archive
    keySpecs: [{name: n, type: INT, default: 0}]
    functions:
      - name: bump
        image: f/bump
"""

THREE_TIER = (
    Zone("edge-a", tier="edge", parent="region-a"),
    Zone("region-a", tier="regional", parent="core"),
    Zone("core", tier="core"),
)
RTT = (
    ("edge-a", "region-a", 0.02),
    ("edge-a", "core", 0.08),
    ("region-a", "core", 0.03),
)


def _bump(ctx):
    ctx.state["n"] = int(ctx.state.get("n") or 0) + 1
    return {"n": ctx.state["n"]}


def fed_platform(*, seed=7, nodes=6, **federation_kwargs):
    federation_kwargs.setdefault("zones", THREE_TIER)
    federation_kwargs.setdefault("zone_rtt_s", RTT)
    return make_platform(
        FED_YAML,
        {"f/bump": (_bump, 0.002)},
        nodes=nodes,
        seed=seed,
        regions=("edge-a", "region-a", "core"),
        events_enabled=True,
        federation=FederationConfig(enabled=True, **federation_kwargs),
    )


class TestConfigValidation:
    def test_enabled_requires_zones(self):
        with pytest.raises(ValidationError, match="at least one zone"):
            FederationConfig(enabled=True)

    def test_unknown_placement_mode(self):
        with pytest.raises(ValidationError, match="placement"):
            FederationConfig(placement="nearest")

    def test_default_origin_must_be_declared(self):
        with pytest.raises(ValidationError, match="default_origin_zone"):
            FederationConfig(
                enabled=True, zones=THREE_TIER, default_origin_zone="mars"
            )

    def test_cluster_regions_must_name_zones(self):
        with pytest.raises(ValidationError, match="names no declared zone"):
            fed_platform(zones=(Zone("edge-a", tier="edge"),), zone_rtt_s=())

    def test_disabled_config_constructs_no_plane(self):
        platform = make_platform(federation=FederationConfig())
        assert platform.federation is None


class TestTopology:
    def test_zone_validation(self):
        with pytest.raises(ValidationError, match="tier"):
            Zone("x", tier="orbit")
        with pytest.raises(ValidationError, match="duplicate"):
            ZoneTopology((Zone("a"), Zone("a")))
        with pytest.raises(ValidationError, match="unknown parent"):
            ZoneTopology((Zone("a", parent="nope"),))
        with pytest.raises(ValidationError, match="higher tier"):
            ZoneTopology((Zone("a", tier="core", parent="b"), Zone("b", tier="edge")))

    def test_rtt_matrix_validation(self):
        with pytest.raises(ValidationError, match="unknown zone"):
            ZoneTopology((Zone("a"),), (("a", "b", 0.1),))
        with pytest.raises(ValidationError, match="itself"):
            ZoneTopology((Zone("a"),), (("a", "a", 0.1),))
        with pytest.raises(ValidationError, match="> 0"):
            ZoneTopology((Zone("a"), Zone("b")), (("a", "b", 0),))

    def test_rtt_symmetric_with_flat_fallback(self):
        topo = ZoneTopology(THREE_TIER, RTT)
        assert topo.rtt_s("edge-a", "core") == pytest.approx(0.08)
        assert topo.rtt_s("core", "edge-a") == pytest.approx(0.08)
        assert topo.rtt_s("core", "core") == 0.0
        assert ZoneTopology(THREE_TIER).rtt_s("edge-a", "core") is None

    def test_jurisdiction_matches_zone_name_or_region(self):
        topo = ZoneTopology(
            (Zone("eu-edge", tier="edge", region="eu"), Zone("us-core", tier="core"))
        )
        assert topo.matches_jurisdiction("eu-edge", ("eu",))
        assert topo.matches_jurisdiction("eu-edge", ("eu-edge",))
        assert not topo.matches_jurisdiction("us-core", ("eu",))
        assert topo.matches_jurisdiction("us-core", ())
        assert topo.jurisdiction_labels() == {"eu-edge", "eu", "us-core"}

    def test_unknown_zone_raises(self):
        with pytest.raises(ValidationError, match="known zones"):
            ZoneTopology(THREE_TIER).zone("mars")


class TestPlanner:
    def test_latency_class_pins_to_edge(self):
        platform = fed_platform()
        planner = platform.federation.planner
        plan = planner.plan(platform.crm.runtime("Sensor").resolved.nfr)
        # Sensor declares a latency NFR: only edge-tier nodes qualify.
        assert plan and all(
            planner.zone_of_node(n).tier == "edge" for n in plan
        )

    def test_unconstrained_class_prefers_core(self):
        platform = fed_platform()
        planner = platform.federation.planner
        plan = planner.plan(platform.crm.runtime("Archive").resolved.nfr)
        assert set(plan) == set(platform.cluster.node_names)
        assert planner.zone_of_node(plan[0]).tier == "core"

    def test_core_only_mode_overrides_latency_pin(self):
        platform = fed_platform(placement="core-only")
        planner = platform.federation.planner
        # core-only consolidates on the highest tier *within* the
        # jurisdiction: Sensor may not leave edge-a/region-a.
        plan = planner.plan(platform.crm.runtime("Sensor").resolved.nfr)
        assert plan and all(
            planner.zone_of_node(n).tier == "regional" for n in plan
        )

    def test_jurisdiction_is_a_hard_filter(self):
        platform = fed_platform()
        planner = platform.federation.planner
        plan = planner.plan(platform.crm.runtime("Sensor").resolved.nfr)
        allowed = set(planner.allowed_nodes(("edge-a", "region-a")))
        assert set(plan) <= allowed

    def test_unknown_jurisdiction_label_raises(self):
        platform = fed_platform()
        with pytest.raises(SchedulingError, match="unknown jurisdiction"):
            platform.federation.planner.allowed_nodes(("mars",))

    def test_undeployable_jurisdiction_fails_deploy(self):
        platform = fed_platform()
        with pytest.raises(DeploymentError, match="jurisdiction"):
            platform.deploy(
                "classes:\n  - name: Bad\n    constraint: {jurisdiction: mars}\n"
            )


class TestClusterRegions:
    def test_unknown_region_raises_typed_error(self):
        platform = make_platform(nodes=4, regions=("us-east", "eu-west"))
        with pytest.raises(SchedulingError, match="eu-west"):
            platform.cluster.nodes_in_regions(("eu-wset",))

    def test_known_regions_still_listed(self):
        platform = make_platform(nodes=4, regions=("us-east", "eu-west"))
        assert platform.cluster.nodes_in_regions(("eu-west",)) == ["vm-1", "vm-3"]


class TestGeoRouting:
    def test_routes_to_nearest_eligible_replica(self):
        platform = fed_platform()
        fed = platform.federation
        dht = platform.crm.dht_for("Archive")
        obj = platform.new_object("Archive", object_id="arc-1")
        key = obj.split("~", 1)[1] if "~" in obj else obj
        owners = dht.owners(obj)
        for origin in ("edge-a", "region-a", "core"):
            chosen = fed.route(dht, obj, origin)
            legs = [
                fed.zone_rtt_s(origin, fed.planner.zone_of_node(n).name)
                for n in owners
            ]
            chosen_leg = fed.zone_rtt_s(
                origin, fed.planner.zone_of_node(chosen).name
            )
            assert chosen in owners
            assert chosen_leg == min(legs)
        assert key  # object ids embed the class prefix

    def test_cross_jurisdiction_invoke_rejected_with_451(self):
        platform = fed_platform()
        obj = platform.new_object("Sensor", object_id="s-1")
        ok = platform.http(
            "POST",
            f"/api/objects/{obj}/invokes/bump",
            {},
            headers={"X-Origin-Zone": "edge-a"},
        )
        assert ok.status == 200
        rejected = platform.http(
            "POST",
            f"/api/objects/{obj}/invokes/bump",
            {},
            headers={"X-Origin-Zone": "core"},
        )
        assert rejected.status == 451
        assert rejected.body["type"] == "JurisdictionError"
        # The rejection must not have touched state.
        assert platform.get_object(obj)["state"]["n"] == 1
        events = platform.platform_events("federation.reject")
        assert len(events) == 1 and events[0].fields["origin"] == "core"

    def test_unknown_origin_zone_rejected(self):
        platform = fed_platform()
        obj = platform.new_object("Sensor", object_id="s-2")
        r = platform.http(
            "POST",
            f"/api/objects/{obj}/invokes/bump",
            {},
            headers={"X-Origin-Zone": "mars"},
        )
        assert r.status == 400

    def test_no_origin_zone_skips_geo_path(self):
        platform = fed_platform()  # no default_origin_zone
        obj = platform.new_object("Sensor", object_id="s-3")
        result = platform.invoke(obj, "bump", {})
        assert result.ok
        assert platform.federation.class_stats("Sensor")["accesses"] == 0

    def test_jurisdiction_verdict_zero_for_compliant_run(self):
        platform = fed_platform(default_origin_zone="edge-a")
        obj = platform.new_object("Sensor", object_id="s-4")
        for _ in range(3):
            assert platform.http(
                "POST", f"/api/objects/{obj}/invokes/bump", {}
            ).status == 200
        row = [
            v for v in platform.nfr_report() if v.requirement == "jurisdiction"
        ]
        assert len(row) == 1
        assert row[0].cls == "Sensor" and row[0].met and row[0].observed == 0.0

    def test_jurisdiction_verdict_counts_misconfigured_control(self):
        # Deliberately misconfigured control arm: clients default to an
        # origin outside Sensor's jurisdictions.
        platform = fed_platform(default_origin_zone="core")
        obj = platform.new_object("Sensor", object_id="s-5")
        for _ in range(3):
            assert platform.http(
                "POST", f"/api/objects/{obj}/invokes/bump", {}
            ).status == 451
        row = [
            v for v in platform.nfr_report() if v.requirement == "jurisdiction"
        ]
        assert len(row) == 1
        assert not row[0].met and row[0].observed == 3.0


class TestMigration:
    def test_http_migrate_moves_primary_and_preserves_state(self):
        platform = fed_platform()
        obj = platform.new_object("Sensor", object_id="s-1")
        for _ in range(4):
            assert platform.invoke(obj, "bump", {}).ok
        dht = platform.crm.dht_for("Sensor")
        source = dht.owner(obj)
        assert platform.federation.planner.zone_of_node(source).name == "edge-a"
        r = platform.http(
            "POST", f"/api/classes/Sensor/objects/{obj}/migrate", {"zone": "region-a"}
        )
        assert r.status == 200
        summary = r.body
        assert summary["source"] == source
        assert summary["source_zone"] == "edge-a"
        assert summary["target_zone"] == "region-a"
        assert summary["version"] >= 4
        target = summary["target"]
        assert platform.federation.planner.zone_of_node(target).name == "region-a"
        assert dht.owner(obj) == target
        assert platform.get_object(obj)["state"]["n"] == 4
        events = platform.platform_events("federation.migrate")
        assert len(events) == 1 and events[0].fields["target"] == target

    def test_migration_survives_further_writes_exactly_once(self):
        platform = fed_platform()
        obj = platform.new_object("Sensor", object_id="s-2")
        acked = 0
        for _ in range(5):
            if platform.invoke(obj, "bump", {}).ok:
                acked += 1
        summary = platform.migrate_object(obj, "region-a", cls="Sensor")
        assert summary["target_zone"] == "region-a"
        for _ in range(5):
            if platform.invoke(obj, "bump", {}).ok:
                acked += 1
        # Exactly-once visibility across the handoff: the counter equals
        # the number of acknowledged increments — none lost, none doubled.
        assert platform.get_object(obj)["state"]["n"] == acked == 10

    def test_migrate_outside_jurisdiction_rejected(self):
        platform = fed_platform()
        obj = platform.new_object("Sensor", object_id="s-3")
        r = platform.http(
            "POST", f"/api/classes/Sensor/objects/{obj}/migrate", {"zone": "core"}
        )
        assert r.status == 409
        assert "jurisdiction" in r.body["error"]
        assert platform.federation.jurisdiction_rejections("Sensor") == 1

    def test_migrate_unknown_zone_rejected(self):
        platform = fed_platform()
        obj = platform.new_object("Archive", object_id="a-1")
        r = platform.http(
            "POST", f"/api/classes/Archive/objects/{obj}/migrate", {"zone": "mars"}
        )
        assert r.status == 400

    def test_migrate_unknown_object_404(self):
        platform = fed_platform()
        r = platform.http(
            "POST", "/api/classes/Archive/objects/Archive~ghost/migrate",
            {"zone": "core"},
        )
        assert r.status == 404
        assert platform.federation.migration.migrations_failed == 1

    def test_migrate_extends_ring_into_unrepresented_zone(self):
        # Sensor's ring is edge-pinned; migrating into region-a must
        # extend the ring with the zone's best node (operator spill).
        platform = fed_platform()
        obj = platform.new_object("Sensor", object_id="s-4")
        dht = platform.crm.dht_for("Sensor")
        before = set(dht.nodes)
        assert all(
            platform.federation.planner.zone_of_node(n).name == "edge-a"
            for n in before
        )
        summary = platform.migrate_object(obj, "region-a", cls="Sensor")
        assert summary["target"] in set(dht.nodes) - before
        assert dht.owner(obj) == summary["target"]

    def test_pin_dissolves_when_pinned_node_fails(self):
        platform = fed_platform()
        obj = platform.new_object("Sensor", object_id="s-5")
        platform.invoke(obj, "bump", {})
        summary = platform.migrate_object(obj, "region-a", cls="Sensor")
        target = summary["target"]
        platform.fail_node(target)
        dht = platform.crm.dht_for("Sensor")
        assert dht.owner(obj) != target
        # Replicated state survives the pinned node's crash.
        assert platform.invoke(obj, "bump", {}).ok


GEO_YAML = """
name: geo-app
classes:
  - name: Doc
    keySpecs: [{name: n, type: INT, default: 0}]
    functions: [{name: bump, image: f/bump}]
"""
ORIGINS = ("edge-a", "region-a", "core")


def nearest_replica(fed, owners, origin):
    """Geo-routing as it was written before it was memoised: every
    replica's client leg evaluated fresh, ties to the owner order."""

    def leg(node):
        zone = fed.planner.zone_of_node(node)
        return fed.zone_rtt_s(origin, zone.name if zone else None)

    return owners[min(range(len(owners)), key=lambda i: (leg(owners[i]), i))]


class TestRoutingUnderTopologyChange:
    """Geo-routes and pair RTTs are decided once and looked up per
    request; these are the three ways the decision can change."""

    def platform(self):
        # Two replicas per object over six nodes in three zones: where a
        # request is served depends on where it comes from.
        platform = make_platform(
            GEO_YAML,
            {"f/bump": (_bump, 0.002)},
            nodes=6,
            seed=7,
            regions=ORIGINS,
            catalog=TemplateCatalog(
                [ClassRuntimeTemplate("replicated", config=RuntimeConfig(replication=2))]
            ),
            federation=FederationConfig(enabled=True, zones=THREE_TIER, zone_rtt_s=RTT),
        )
        ids = [platform.new_object("Doc", object_id=f"d-{i}") for i in range(40)]
        return platform, platform.federation, platform.crm.dht_for("Doc"), ids

    def zones_of(self, fed, nodes):
        return [fed.planner.zone_of_node(node).name for node in nodes]

    def warm(self, platform, fed, dht, ids):
        """Ask every question once, so a stale answer would be served."""
        for obj in ids:
            for origin in ORIGINS:
                fed.route(dht, obj, origin)
        for src in platform.cluster.node_names:
            for dst in platform.cluster.node_names:
                platform.network.transfer(src, dst)

    def assert_routes_fresh(self, fed, dht, ids):
        for obj in ids:
            for origin in ORIGINS:
                assert fed.route(dht, obj, origin) == nearest_replica(
                    fed, dht.owners(obj), origin
                )

    def test_node_rejoining_in_another_zone_is_routed_and_priced_there(self):
        platform, fed, dht, ids = self.platform()
        model = platform.network.model
        assert platform.cluster.region_of("vm-2") == "core"
        # Replicas on vm-2 (core) and a region-a node: from the edge the
        # regional copy is nearer (20 ms against 80 ms).
        obj = next(
            o for o in ids
            if "vm-2" in dht.owners(o)
            and sorted(self.zones_of(fed, dht.owners(o))) == ["core", "region-a"]
        )
        owners = dht.owners(obj)
        regional = next(node for node in owners if node != "vm-2")
        self.warm(platform, fed, dht, ids)
        assert fed.route(dht, obj, "edge-a") == regional
        assert fed.admit("edge-a", "Doc", (), dht, obj) == pytest.approx(0.02)
        assert platform.network.transfer("vm-2", regional).delay == pytest.approx(0.03)
        assert fed.class_stats("Doc")["cross_zone"] == 1

        platform.fail_node("vm-2")
        platform.add_node("vm-2", region="edge-a")
        # Same name, same ring points, same owner tuple — another zone.
        assert dht.owners(obj) == owners
        assert fed.route(dht, obj, "edge-a") == "vm-2"
        assert fed.admit("edge-a", "Doc", (), dht, obj) == model.rtt_s
        assert fed.class_stats("Doc")["cross_zone"] == 1  # served in-zone now
        assert platform.network.transfer("vm-2", regional).delay == pytest.approx(0.02)
        assert platform.network.transfer("vm-2", "vm-0").delay == model.rtt_s
        reply = platform.http(
            "POST", f"/api/objects/{obj}/invokes/bump", {},
            headers={"X-Origin-Zone": "edge-a"},
        )
        assert reply.status == 200
        assert fed.class_stats("Doc") == {"accesses": 3, "cross_zone": 1, "rejections": 0}
        self.assert_routes_fresh(fed, dht, ids)

    def test_migration_pin_reorders_owners_and_route_follows(self):
        platform, fed, dht, ids = self.platform()
        # Both replicas at the edge: a core client crosses zones.
        obj = next(
            o for o in ids if self.zones_of(fed, dht.owners(o)) == ["edge-a", "edge-a"]
        )
        self.warm(platform, fed, dht, ids)
        assert fed.route(dht, obj, "core") == dht.owners(obj)[0]
        fed.admit("core", "Doc", (), dht, obj)
        assert fed.class_stats("Doc")["cross_zone"] == 1

        summary = platform.migrate_object(obj, "core", cls="Doc")
        pinned = summary["target"]
        assert dht.owners(obj)[0] == pinned
        assert fed.route(dht, obj, "core") == pinned
        assert fed.admit("core", "Doc", (), dht, obj) == platform.network.model.rtt_s
        assert fed.class_stats("Doc")["cross_zone"] == 1  # no longer crossing
        # An edge client still has an edge follower to read from.
        assert fed.planner.zone_of_node(fed.route(dht, obj, "edge-a")).name == "edge-a"
        self.assert_routes_fresh(fed, dht, ids)

    def test_added_nearer_replica_is_routed_to(self):
        platform, fed, dht, ids = self.platform()
        self.warm(platform, fed, dht, ids)
        before = {obj: fed.route(dht, obj, "core") for obj in ids}
        platform.add_node("vm-6", region="core")
        assert "vm-6" in dht.nodes
        gained = [
            obj for obj in ids
            if "vm-6" in dht.owners(obj)
            and fed.planner.zone_of_node(before[obj]).name != "core"
        ]
        assert gained  # some object had no core replica until now
        for obj in gained:
            assert fed.route(dht, obj, "core") == "vm-6"
        self.assert_routes_fresh(fed, dht, ids)


class TestPlacementLifecycle:
    def test_self_heal_respects_jurisdiction(self):
        platform = fed_platform()
        obj = platform.new_object("Sensor", object_id="s-1")
        platform.invoke(obj, "bump", {})
        allowed = set(platform.federation.planner.allowed_nodes(("edge-a",)))
        victim = next(iter(allowed))
        platform.fail_node(victim)
        platform.advance(1.0)
        platform.invoke(obj, "bump", {})
        runtime = platform.crm.runtime("Sensor")
        for service in runtime.services.values():
            for pod in service.deployment.pods:
                assert pod.node in allowed - {victim}

    def test_joining_edge_node_adopted_only_by_eligible_classes(self):
        platform = fed_platform()
        platform.new_object("Sensor", object_id="s-2")
        platform.add_node("vm-6", region="edge-a")
        assert "vm-6" in set(platform.crm.dht_for("Sensor").nodes)
        platform.add_node("vm-7", region="core")
        # Sensor is pinned to the edge: the new core node stays out.
        assert "vm-7" not in set(platform.crm.dht_for("Sensor").nodes)
        assert "vm-7" in set(platform.crm.dht_for("Archive").nodes)


class TestZoneChaos:
    def test_zone_faults_require_the_plane(self):
        plain = (
            "classes:\n"
            "  - name: Task\n"
            "    keySpecs: [{name: n, type: INT, default: 0}]\n"
            "    functions: [{name: bump, image: f/bump}]\n"
        )
        platform = make_platform(plain, {"f/bump": (_bump, 0.002)}, nodes=3)
        plan = FaultPlan(
            "zp", (ZonePartition(at=0.1, duration_s=0.5, zone="edge-a"),)
        )
        platform.inject_chaos(plan)
        with pytest.raises(SimulationError, match="federation plane"):
            platform.advance(0.2)
        plan = FaultPlan(
            "wan",
            (WanDegradation(at=0.1, duration_s=0.5, src_zone="edge-a", extra_s=0.05),),
        )
        platform.inject_chaos(plan)
        with pytest.raises(SimulationError, match="federation plane"):
            platform.advance(0.2)

    def test_fault_validation(self):
        with pytest.raises(ValidationError):
            ZonePartition(at=0.0, duration_s=0.0, zone="edge-a")
        with pytest.raises(ValidationError):
            ZonePartition(at=0.0, duration_s=1.0, zone="")
        with pytest.raises(ValidationError):
            WanDegradation(at=0.0, duration_s=1.0, src_zone="edge-a", extra_s=0.0)

    def test_migration_under_zone_partition_exactly_once(self):
        # The acceptance drill: increments land before the fault, the
        # object migrates away from the zone about to be cut off, the
        # zone partitions, and every acknowledged increment is visible
        # exactly once afterwards.
        platform = fed_platform()
        obj = platform.new_object("Sensor", object_id="s-1")
        acked = 0
        for _ in range(5):
            if platform.invoke(obj, "bump", {}).ok:
                acked += 1
        summary = platform.migrate_object(obj, "region-a", cls="Sensor")
        assert summary["target_zone"] == "region-a"
        injector = platform.inject_chaos(
            FaultPlan("zp", (ZonePartition(at=0.05, duration_s=0.4, zone="edge-a"),))
        )
        platform.advance(0.1)  # partition is now live
        for _ in range(5):
            if platform.invoke(obj, "bump", {}).ok:
                acked += 1
        platform.advance(0.6)  # heal + anti-entropy
        assert injector.done
        for _ in range(2):
            if platform.invoke(obj, "bump", {}).ok:
                acked += 1
        platform.flush()
        assert platform.get_object(obj)["state"]["n"] == acked
        assert acked >= 7  # pre-fault and post-heal increments all landed

    def test_wan_degradation_slows_cross_zone_transfers(self):
        platform = fed_platform()
        obj = platform.new_object("Archive", object_id="a-1")
        platform.invoke(obj, "bump", {})
        baseline = platform.migrate_object(obj, "edge-a", cls="Archive")
        platform.inject_chaos(
            FaultPlan(
                "wan",
                (
                    WanDegradation(
                        at=0.0,
                        duration_s=5.0,
                        src_zone="edge-a",
                        dst_zone="core",
                        extra_s=0.5,
                    ),
                ),
            )
        )
        platform.advance(0.01)
        degraded = platform.migrate_object(obj, "core", cls="Archive")
        assert degraded["duration_s"] > baseline["duration_s"] + 0.4


class TestDeterminism:
    @staticmethod
    def _run():
        platform = fed_platform(default_origin_zone="edge-a")
        obj = platform.new_object("Sensor", object_id="s-1")
        for _ in range(4):
            platform.http("POST", f"/api/objects/{obj}/invokes/bump", {})
        platform.http(
            "POST", f"/api/objects/{obj}/invokes/bump", {},
            headers={"x-origin-zone": "core"},
        )
        platform.migrate_object(obj, "region-a", cls="Sensor")
        events = [
            (e.at, e.type, tuple(sorted(e.fields.items())))
            for e in platform.platform_events()
        ]
        stats = platform.federation.stats()
        snap = platform.snapshot()
        platform.shutdown()
        return events, stats, snap

    def test_federated_run_is_seed_deterministic(self):
        assert self._run() == self._run()

    def test_snapshot_exposes_federation_counters(self):
        platform = fed_platform(default_origin_zone="edge-a")
        obj = platform.new_object("Sensor", object_id="s-1")
        platform.http(
            "POST", f"/api/objects/{obj}/invokes/bump", {},
            headers={"x-origin-zone": "core"},
        )
        platform.migrate_object(obj, "region-a", cls="Sensor")
        snap = platform.snapshot()
        assert snap["federation.migrations_total"] == 1.0
        assert snap["federation.rejections_total"] == 1.0
        report = platform.report("federation")
        assert report["migrations_total"] == 1
