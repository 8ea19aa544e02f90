"""End-to-end tests of the durability plane wired into the platform:
crash recovery with measured RPO/RTO, reports, and the off-by-default
baseline guarantee."""

import pytest

from repro.durability.plane import DurabilityConfig
from repro.monitoring.events import EventLog
from repro.platform.oparaca import Oparaca, PlatformConfig
from repro.sim.kernel import all_of

from tests.helpers import make_platform
from tests.test_durability_snapshot import DURA_YAML, bump, dura_platform, take_cut


def crash_owner(platform, object_id, cls="Cart"):
    """Fail the node owning ``object_id`` and wait for every recovery."""
    victim = platform.crm.runtime(cls).dht.owner(object_id)
    platform.fail_node(victim)
    recoveries = platform.durability.recoveries()
    if recoveries:
        platform.env.run(until=all_of(platform.env, recoveries))
    return victim


def _no_events(self, type=None):
    raise AssertionError("recovery read the event log")


class TestCrashRecovery:
    def test_strong_class_recovers_with_zero_rpo(self):
        platform = dura_platform()
        ids = [platform.new_object("Ledger", object_id=f"led-{i}") for i in range(6)]
        for oid in ids:
            platform.invoke(oid, "bump")
            platform.invoke(oid, "bump")
        crash_owner(platform, ids[0], cls="Ledger")
        for oid in ids:
            assert platform.get_object(oid)["state"]["count"] == 2
        recovery = platform.durability.tracker_for("Ledger").last_recovery
        assert recovery is not None
        assert recovery["rpo_s"] == 0.0 and recovery["lost_writes"] == 0
        assert recovery["rto_s"] > 0.0
        platform.shutdown()

    def test_standard_class_recovers_flushed_state(self):
        platform = dura_platform()
        ids = [platform.new_object("Cart", object_id=f"cart-{i}") for i in range(6)]
        for oid in ids:
            platform.invoke(oid, "bump")
        platform.flush()  # everything durable before the crash
        crash_owner(platform, ids[0])
        for oid in ids:
            assert platform.get_object(oid)["state"]["count"] == 1
        recovery = platform.durability.tracker_for("Cart").last_recovery
        assert recovery["rpo_s"] == 0.0 and recovery["lost_writes"] == 0
        platform.shutdown()

    def test_unflushed_tail_is_measured_as_lost(self):
        platform = dura_platform()
        ids = [platform.new_object("Cart", object_id=f"cart-{i}") for i in range(6)]
        platform.advance(2.0)  # creations flush
        victim = platform.crm.runtime("Cart").dht.owner(ids[0])
        victim_keys = [
            oid
            for oid in ids
            if platform.crm.runtime("Cart").dht.owner(oid) == victim
        ]
        for oid in victim_keys:  # acknowledged, still in the victim's buffer
            platform.invoke(oid, "bump")
        platform.fail_node(victim)
        platform.env.run(
            until=all_of(platform.env, platform.durability.recoveries())
        )
        recovery = platform.durability.tracker_for("Cart").last_recovery
        assert recovery["lost_writes"] == len(victim_keys)
        assert recovery["rpo_s"] >= 0.0
        audited_lost = sum(
            1
            for oid in victim_keys
            if platform.get_object(oid)["state"].get("count", 0) == 0
        )
        assert audited_lost == recovery["lost_writes"]
        platform.shutdown()

    @pytest.mark.parametrize("events_enabled", [True, False])
    def test_recovery_reads_one_commit_history_whatever_the_event_log(
        self, monkeypatch, events_enabled
    ):
        """The commit history recovery measures RPO from is the tracker's
        side table alone: with the event log on, a node crash over a
        1 000-object class builds no ``PlatformEvent`` and reports what
        it reports with the log off."""

        def drill(events_on):
            platform = make_platform(
                DURA_YAML,
                {"t/bump": (bump, 0.001)},
                nodes=3,
                seed=5,
                events_enabled=events_on,
                durability=DurabilityConfig(enabled=True, default_interval_s=1000.0),
            )
            ids = [platform.new_object("Cart", object_id=f"cart-{i}") for i in range(1000)]
            take_cut(platform, "Cart")
            for oid in ids[::7]:  # committed after the cut, then made durable
                platform.invoke(oid, "bump")
            platform.flush()
            for oid in ids[3::97]:  # acknowledged, the last still buffered at the crash
                platform.invoke(oid, "bump")
            with monkeypatch.context() as patch:
                patch.setattr(EventLog, "events", _no_events)
                crash_owner(platform, ids[3])
            recovery = dict(platform.durability.tracker_for("Cart").last_recovery)
            platform.shutdown()
            return recovery

        recovery = drill(events_enabled)
        assert recovery["lost_writes"] > 0 and recovery["replayed_commits"] > 0
        assert recovery == drill(not events_enabled)

    def test_recovery_is_deterministic_at_a_seed(self):
        def drill():
            platform = dura_platform()
            ids = [
                platform.new_object("Ledger", object_id=f"led-{i}") for i in range(4)
            ]
            for oid in ids:
                platform.invoke(oid, "bump")
            crash_owner(platform, ids[0], cls="Ledger")
            recovery = dict(
                platform.durability.tracker_for("Ledger").last_recovery
            )
            counts = [platform.get_object(oid)["state"]["count"] for oid in ids]
            platform.shutdown()
            return recovery, counts

        assert drill() == drill()

    def test_rpo_histograms_and_verdict_after_recovery(self):
        platform = dura_platform()
        ids = [platform.new_object("Ledger", object_id=f"led-{i}") for i in range(4)]
        for oid in ids:
            platform.invoke(oid, "bump")
        crash_owner(platform, ids[0], cls="Ledger")
        samples = platform.monitoring.registry.histogram(
            "durability.rpo_s.Ledger"
        )
        assert samples.count == 1
        verdicts = [
            v
            for v in platform.nfr_report()
            if v.cls == "Ledger" and v.requirement == "durability_rpo_s"
        ]
        assert len(verdicts) == 1
        assert verdicts[0].met and verdicts[0].observed == 0.0
        platform.shutdown()


class TestReportsAndBaseline:
    def test_durability_report_shape(self):
        platform = dura_platform()
        obj = platform.new_object("Cart")
        platform.invoke(obj, "bump")
        platform.http("POST", "/api/classes/Cart/snapshots")
        report = platform.report("durability")
        assert report["bucket"] == "oparaca-snapshots"
        assert report["cuts_total"] == 1
        assert "Cart" in report["classes"] and "Ledger" in report["classes"]
        assert report["classes"]["Cart"]["policy"]["mode"] == "periodic"
        platform.shutdown()

    def test_observability_report_and_summary_include_durability(self):
        from repro.monitoring.export import format_summary

        platform = dura_platform()
        obj = platform.new_object("Cart")
        platform.invoke(obj, "bump")
        platform.http("POST", "/api/classes/Cart/snapshots")
        report = platform.observability_report()
        assert "durability" in report
        text = format_summary(report)
        assert "durability plane:" in text
        platform.shutdown()

    def test_snapshot_gains_durability_keys_only_when_enabled(self):
        platform = dura_platform()
        keys = set(platform.snapshot())
        assert {"durability.cuts_total", "durability.epoch_writes_total"} <= keys
        platform.shutdown()

        baseline = Oparaca(PlatformConfig(nodes=2))
        assert not {"durability.cuts_total", "durability.restores_total"} & set(
            baseline.snapshot()
        )
        assert baseline.durability is None
        baseline.shutdown()


class TestGatewayRoutes:
    def test_routes_fall_through_to_404_when_plane_off(self):
        platform = make_platform(
            DURA_YAML.replace("persistence: strong", "persistent: true")
            .replace("persistence: standard", "persistent: true")
            .replace("persistence: none", "persistent: false"),
            {"t/bump": (bump, 0.001)},
            nodes=2,
            seed=5,
        )
        for method, path in (
            ("POST", "/api/classes/Cart/snapshots"),
            ("GET", "/api/classes/Cart/snapshots"),
            ("POST", "/api/classes/Cart/restore"),
        ):
            response = platform.http(method, path)
            assert response.status == 404
            assert response.body["type"] == "NoRouteError"
        platform.shutdown()

    def test_unknown_class_is_404_and_unenforced_class_is_400(self):
        platform = dura_platform()
        assert platform.http("POST", "/api/classes/Nope/snapshots").status == 404
        response = platform.http("POST", "/api/classes/Scratch/snapshots")
        assert response.status == 400
        assert response.body["type"] == "ValidationError"
        platform.shutdown()

    def test_snapshot_listing_shape(self):
        platform = dura_platform()
        obj = platform.new_object("Cart")
        platform.invoke(obj, "bump")
        platform.http("POST", "/api/classes/Cart/snapshots")
        listing = platform.http("GET", "/api/classes/Cart/snapshots")
        assert listing.status == 200
        assert listing.body["count"] == 1
        assert listing.body["generations"][0]["generation"] == 1
        platform.shutdown()

    def test_restore_at_must_be_a_number(self):
        platform = dura_platform()
        obj = platform.new_object("Cart")
        platform.invoke(obj, "bump")
        platform.http("POST", "/api/classes/Cart/snapshots")
        for bad in ("soon", True, [1]):
            response = platform.http(
                "POST", "/api/classes/Cart/restore", {"at": bad}
            )
            assert response.status == 400
            assert response.body["type"] == "ValidationError"
        platform.shutdown()

    def test_error_body_shape_matches_other_404s(self):
        platform = dura_platform()
        plain = platform.http("GET", "/api/objects/Cart~missing")
        durability = platform.http("POST", "/api/classes/Cart/restore")
        assert durability.status == plain.status == 404
        assert set(durability.body) == set(plain.body) == {"error", "type"}
        platform.shutdown()
