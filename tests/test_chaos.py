"""Chaos-plane tests: fault plans, the injector, availability accounting,
determinism regression, and hash-ring failover properties.

The headline contracts:

* injected faults flow through the platform's real seams and are fully
  reverted when their window closes;
* a replicated class meets its availability target through a node crash
  plus partition while a non-replicated ephemeral class demonstrably
  does not — and no *committed* state is ever lost;
* the same seeded workload under the same fault plan produces
  byte-identical event logs and span summaries, twice in a row, for
  several seeds (chaos results are regressible, not anecdotal);
* after any crash/rejoin sequence every key has exactly
  ``min(replication, nodes)`` live owners, and membership changes only
  move keys whose owner set actually changed.
"""

import json
import random
from collections import Counter

import pytest

from repro.chaos import (
    ChaosInjector,
    ColdStartStorm,
    FaultPlan,
    NetworkDelay,
    NodeCrash,
    Partition,
    PLAN_NAMES,
    SlowPods,
    StorageFaults,
    named_plan,
)
from repro.errors import ValidationError
from repro.platform.oparaca import Oparaca, PlatformConfig
from repro.storage.hashring import HashRing

from tests.golden import chaos as chaos_golden

PACKAGE = """
name: chaos-app
classes:
  - name: Ledger
    qos:
      availability: 0.999
    keySpecs:
      - name: balance
        type: INT
        default: 0
    functions:
      - name: add
        image: ledger/add
  - name: Scratch
    qos:
      availability: 0.999
    constraint:
      persistent: false
    keySpecs:
      - name: hits
        type: INT
        default: 0
    functions:
      - name: bump
        image: scratch/bump
"""


def make_platform(seed: int = 0, tracing: bool = False) -> Oparaca:
    platform = Oparaca(
        PlatformConfig(
            nodes=3, seed=seed, tracing_enabled=tracing, events_enabled=True
        )
    )

    @platform.function("ledger/add", service_time_s=0.002)
    def add(ctx):
        ctx.state["balance"] = ctx.state.get("balance", 0) + int(
            ctx.payload.get("amount", 1)
        )
        return {"balance": ctx.state["balance"]}

    @platform.function("scratch/bump", service_time_s=0.002)
    def bump(ctx):
        ctx.state["hits"] = ctx.state.get("hits", 0) + 1
        return {"hits": ctx.state["hits"]}

    platform.deploy(PACKAGE)
    return platform


class TestFaultPlan:
    def test_rejects_negative_time_and_duration(self):
        with pytest.raises(ValidationError):
            NodeCrash(at=-1.0, node="vm-0")
        with pytest.raises(ValidationError):
            NodeCrash(at=0.0, duration_s=-1.0, node="vm-0")

    def test_profile_validation(self):
        with pytest.raises(ValidationError):
            NodeCrash(at=0.0, node="")
        with pytest.raises(ValidationError):
            Partition(at=0.0, duration_s=1.0, nodes=())
        with pytest.raises(ValidationError):
            Partition(at=0.0, duration_s=0.0, nodes=("vm-0",))
        with pytest.raises(ValidationError):
            NetworkDelay(at=0.0, duration_s=1.0, extra_s=0.0)
        with pytest.raises(ValidationError):
            SlowPods(at=0.0, duration_s=1.0, factor=1.0)
        with pytest.raises(ValidationError):
            StorageFaults(at=0.0, duration_s=1.0, error_rate=1.5)
        with pytest.raises(ValidationError):
            ColdStartStorm(at=0.0, duration_s=1.0)

    def test_plan_validation(self):
        with pytest.raises(ValidationError):
            FaultPlan("empty", ())
        with pytest.raises(ValidationError):
            FaultPlan("", (ColdStartStorm(at=0.0),))
        with pytest.raises(ValidationError):
            FaultPlan("bad", ("not-a-fault",))

    def test_end_s_covers_inject_and_revert(self):
        plan = FaultPlan(
            "p",
            (
                NodeCrash(at=1.0, duration_s=5.0, node="vm-0"),
                Partition(at=4.0, duration_s=1.0, nodes=("vm-1",)),
            ),
        )
        assert plan.end_s == pytest.approx(6.0)

    def test_describe_is_sorted_by_time(self):
        plan = FaultPlan(
            "p",
            (
                Partition(at=4.0, duration_s=1.0, nodes=("vm-1",)),
                NodeCrash(at=1.0, node="vm-0"),
            ),
        )
        described = plan.describe()["faults"]
        assert [f["kind"] for f in described] == ["NodeCrash", "Partition"]


class TestNamedPlans:
    def test_all_builtin_plans_build(self):
        nodes = ["vm-0", "vm-1", "vm-2"]
        for name in PLAN_NAMES:
            plan = named_plan(name, nodes)
            assert plan.name == name
            assert plan.faults
            assert plan.end_s < 30.0

    def test_unknown_plan_and_empty_cluster(self):
        with pytest.raises(ValidationError, match="unknown chaos plan"):
            named_plan("nope", ["vm-0"])
        with pytest.raises(ValidationError, match="at least one"):
            named_plan("node-crash", [])


class TestChaosInjection:
    def run_incident(self, platform, plan, rounds=60, interval=0.075):
        """Drive both classes round-robin while ``plan`` plays out."""
        ledgers = [
            platform.new_object("Ledger", object_id=f"acct-{i}") for i in range(4)
        ]
        pads = [
            platform.new_object("Scratch", object_id=f"pad-{i}") for i in range(4)
        ]
        injector = platform.inject_chaos(plan)
        committed = {obj: 0 for obj in ledgers}
        for round_no in range(rounds):
            obj = ledgers[round_no % 4]
            if platform.invoke(obj, "add", {"amount": 1}, raise_on_error=False).ok:
                committed[obj] += 1
            platform.invoke(pads[round_no % 4], "bump", raise_on_error=False)
            platform.advance(interval)
        platform.advance(max(0.0, plan.end_s - platform.now) + 0.5)
        return injector, ledgers, committed

    def test_crash_and_partition_split_by_replication(self):
        platform = make_platform()
        plan = FaultPlan(
            "incident",
            (
                NodeCrash(at=1.0, duration_s=4.0, node="vm-1"),
                Partition(at=2.0, duration_s=3.0, nodes=("vm-2",)),
            ),
        )
        injector, ledgers, committed = self.run_incident(platform, plan)
        availability = injector.fault_availability()
        # The replicated persistent class rides the incident out...
        assert availability["Ledger"] is not None
        assert availability["Ledger"] >= 0.999
        # ...the single-copy ephemeral class demonstrably does not.
        assert availability["Scratch"] is not None
        assert availability["Scratch"] < 0.999
        # No committed state was lost, through crash, partition, rejoin.
        for obj, expected in committed.items():
            assert platform.get_object(obj)["state"]["balance"] == expected
        # The crashed node is back and serving DHT ownership.
        assert "vm-1" in platform.cluster.node_names
        assert "vm-1" in platform.crm.runtime("Ledger").dht.nodes

    def test_windows_and_events_recorded(self):
        platform = make_platform()
        plan = FaultPlan(
            "windows",
            (
                NodeCrash(at=1.0, duration_s=2.0, node="vm-1"),
                Partition(at=4.0, duration_s=1.0, nodes=("vm-2",)),
            ),
        )
        injector, _, _ = self.run_incident(platform, plan, rounds=20, interval=0.3)
        assert injector.injected == 2 and injector.recovered == 2
        # Disjoint faults open disjoint windows.
        assert len(injector.windows) == 2
        assert all(not w.open for w in injector.windows)
        assert injector.fault_time_s() == pytest.approx(3.0)
        inject_events = platform.platform_events("chaos.inject")
        recover_events = platform.platform_events("chaos.recover")
        assert [e.fields["kind"] for e in inject_events] == ["NodeCrash", "Partition"]
        assert len(recover_events) == 2
        assert all(e.fields["plan"] == "windows" for e in inject_events)

    def test_storage_faults_delay_but_never_lose_commits(self):
        platform = make_platform()
        plan = FaultPlan(
            "lossy-db", (StorageFaults(at=0.5, duration_s=3.0, error_rate=1.0),)
        )
        injector, ledgers, committed = self.run_incident(
            platform, plan, rounds=40, interval=0.1
        )
        assert platform.store.faulted_writes > 0
        stats = platform.crm.runtime("Ledger").dht.write_behind_stats
        assert stats["flush_failures"] > 0
        # Invocations kept succeeding: the write-behind tier absorbs the
        # fault window and retries with capped backoff.
        availability = injector.fault_availability()
        assert availability["Ledger"] == 1.0
        # After the window, everything committed reaches the store.
        platform.flush()
        collection = platform.crm.runtime("Ledger").dht.collection
        for obj, expected in committed.items():
            doc = platform.store.get_sync(collection, obj)
            assert doc is not None and doc["state"]["balance"] == expected

    def test_cold_start_storm_evicts_and_recovers(self):
        platform = make_platform()
        obj = platform.new_object("Ledger", object_id="acct-0")
        platform.invoke(obj, "add", {"amount": 1})
        svc = platform.crm.runtime("Ledger").services["add"]
        assert svc.ready_replicas > 0
        injector = platform.inject_chaos(
            FaultPlan("storm", (ColdStartStorm(at=0.5, classes=("Ledger",)),))
        )
        platform.advance(1.0)
        result = platform.invoke(obj, "add", {"amount": 1}, raise_on_error=False)
        assert result.ok  # survives the storm, at cold-start latency
        assert injector.injected == 1
        assert not injector.windows  # instantaneous: no availability window

    def test_slow_pods_scoped_to_one_class(self):
        platform = make_platform()
        ledger = platform.new_object("Ledger", object_id="acct-0")
        pad = platform.new_object("Scratch", object_id="pad-0")
        platform.inject_chaos(
            FaultPlan(
                "molasses", (SlowPods(at=0.1, duration_s=20.0, factor=200.0, cls="Ledger"),)
            )
        )
        platform.advance(0.2)
        slow = platform.invoke(ledger, "add", {"amount": 1})
        fast = platform.invoke(pad, "bump")
        # Only the targeted class pays the slowdown.
        assert slow.latency_s > 0.2
        assert fast.latency_s < 0.2

    def test_network_delay_inflates_remote_latency(self):
        platform = make_platform()
        obj = platform.new_object("Ledger", object_id="acct-0")
        platform.invoke(obj, "add", {"amount": 1})  # warm up (cold start)
        baseline = platform.invoke(obj, "add", {"amount": 1}).latency_s
        platform.inject_chaos(
            FaultPlan("lag", (NetworkDelay(at=0.1, duration_s=30.0, extra_s=0.05),))
        )
        platform.advance(0.2)
        laggy = platform.invoke(obj, "add", {"amount": 1}).latency_s
        assert laggy > baseline + 0.05

    def test_injector_start_is_idempotent(self):
        platform = make_platform()
        injector = ChaosInjector(
            platform, FaultPlan("noop", (ColdStartStorm(at=0.1),))
        )
        assert injector.start() is injector.start()

    def test_nfr_report_gains_under_fault_rows(self):
        platform = make_platform()
        plan = FaultPlan(
            "incident", (NodeCrash(at=1.0, duration_s=4.0, node="vm-1"),)
        )
        self.run_incident(platform, plan, rounds=40)
        rows = {
            (v.cls, v.requirement): v for v in platform.nfr_report()
        }
        assert ("Ledger", "availability_under_fault") in rows
        assert rows[("Ledger", "availability_under_fault")].met
        under = rows[("Scratch", "availability_under_fault")]
        assert not under.met
        assert "fault windows" in under.detail
        report = platform.observability_report()
        assert report["chaos"]["injected"] == 1


class TestDeterminism:
    """Same seed + same plan = byte-identical observable behaviour."""

    def run_scenario(self, seed: int):
        platform = make_platform(seed=seed, tracing=True)
        plan = FaultPlan(
            "det",
            (
                NodeCrash(at=1.0, duration_s=3.0, node="vm-1"),
                StorageFaults(at=1.5, duration_s=2.0, error_rate=0.5),
                Partition(at=2.0, duration_s=2.0, nodes=("vm-2",)),
            ),
        )
        ledgers = [
            platform.new_object("Ledger", object_id=f"acct-{i}") for i in range(4)
        ]
        pads = [
            platform.new_object("Scratch", object_id=f"pad-{i}") for i in range(4)
        ]
        injector = platform.inject_chaos(plan)
        for round_no in range(40):
            platform.invoke(
                ledgers[round_no % 4], "add", {"amount": 1}, raise_on_error=False
            )
            platform.invoke(pads[round_no % 4], "bump", raise_on_error=False)
            platform.advance(0.1)
        platform.advance(max(0.0, plan.end_s - platform.now) + 0.5)
        platform.shutdown()
        events_text = platform.events.render()
        span_summary = sorted(
            Counter(span.name for span in platform.tracer.spans()).items()
        )
        balances = {
            obj: platform.get_object(obj)["state"]["balance"] for obj in ledgers
        }
        return events_text, span_summary, injector.stats(), balances

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_replay_is_byte_identical(self, seed):
        first = self.run_scenario(seed)
        second = self.run_scenario(seed)
        assert first[0] == second[0]  # event log, byte for byte
        assert first[1] == second[1]  # span-name summary
        assert first[2] == second[2]  # chaos summary incl. availability
        assert first[3] == second[3]  # committed state

    def test_different_seeds_still_complete(self):
        # Sanity: the scenario is seed-sensitive but always terminates
        # with a fully recovered plan.
        _, _, summary, _ = self.run_scenario(11)
        assert summary["injected"] == 3
        assert summary["recovered"] == 3


class TestGoldenNarration:
    """Every pinned plan narrates exactly what ``tests/golden/chaos.json``
    holds: requests, events, injector stats, NFR rows."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(chaos_golden.GOLDEN.read_text())

    @pytest.mark.parametrize("name", list(chaos_golden.CASES))
    def test_plan_narrates_as_pinned(self, golden, name):
        captured = json.loads(json.dumps(chaos_golden.capture_plan(name)))
        assert captured == golden[name]


class TestHashRingFailoverProperties:
    """Property-style checks over random crash/rejoin sequences."""

    KEYS = [f"key-{i}" for i in range(200)]
    REPLICATION = 2

    def owner_sets(self, ring: HashRing) -> dict[str, tuple[str, ...]]:
        return {
            key: tuple(ring.owners(key, self.REPLICATION)) for key in self.KEYS
        }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_owner_count_and_minimal_movement(self, seed):
        rng = random.Random(seed)
        ring = HashRing(["n0", "n1", "n2", "n3"])
        pool = [f"n{i}" for i in range(8)]
        for step in range(30):
            before = self.owner_sets(ring)
            live = set(ring.nodes)
            candidates_to_add = [n for n in pool if n not in live]
            crash = len(live) > 2 and (not candidates_to_add or rng.random() < 0.5)
            if crash:
                affected = rng.choice(sorted(live))
                ring.remove_node(affected)
            else:
                affected = rng.choice(candidates_to_add)
                ring.add_node(affected)
            after = self.owner_sets(ring)
            expected_owners = min(self.REPLICATION, len(ring))
            for key in self.KEYS:
                owners = after[key]
                # Exactly `replication` live owners (fewer only when the
                # cluster itself is smaller), all distinct, all live.
                assert len(owners) == expected_owners
                assert len(set(owners)) == len(owners)
                assert all(node in ring for node in owners)
                # Minimal movement: keys whose owner set did not involve
                # the affected node keep exactly the same owners.
                if affected not in before[key] and affected not in owners:
                    assert owners == before[key]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_crash_rejoin_roundtrip_restores_ownership(self, seed):
        rng = random.Random(seed)
        ring = HashRing(["n0", "n1", "n2", "n3"])
        before = self.owner_sets(ring)
        victim = rng.choice(sorted(ring.nodes))
        ring.remove_node(victim)
        ring.add_node(victim)
        assert self.owner_sets(ring) == before
