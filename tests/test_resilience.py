"""Resilience-plane tests: policies, breakers, and the invoker's
defensive behaviour under injected network faults.

The contract under test: data-plane faults cost bounded retries, every
defensive action is observable, failures surface as structured
:class:`~repro.errors.OaasError` results (never raw exceptions), and a
class's NFRs decide how hard the platform fights for it.
"""

import json
import random

import pytest

from repro.errors import (
    ConcurrentModificationError,
    NetworkPartitionError,
    ValidationError,
)
from repro.invoker.resilience import (
    BreakerBoard,
    ResiliencePolicy,
)
from repro.model.nfr import NonFunctionalRequirements, QosRequirement
from repro.monitoring.events import EventLog
from repro.platform.oparaca import Oparaca, PlatformConfig

from tests.golden import resilience as resilience_golden
from tests.helpers import listing1_platform

HA_PACKAGE = """
name: resilience-app
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


def make_platform(seed: int = 0, events: bool = False) -> Oparaca:
    platform = Oparaca(
        PlatformConfig(nodes=3, seed=seed, events_enabled=events)
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

    platform.deploy(HA_PACKAGE)
    return platform


def nfr(availability=None, latency_ms=None):
    return NonFunctionalRequirements(
        qos=QosRequirement(availability=availability, latency_ms=latency_ms)
    )


class TestResiliencePolicy:
    def test_defaults_are_valid(self):
        policy = ResiliencePolicy()
        assert policy.max_retries == 2
        assert policy.deadline_s is None

    @pytest.mark.parametrize(
        "availability,retries,threshold",
        [
            (None, 2, 5),
            (0.95, 2, 5),
            (0.99, 3, 4),
            (0.999, 4, 3),
            (0.9999, 5, 3),
        ],
    )
    def test_availability_tiers(self, availability, retries, threshold):
        policy = ResiliencePolicy.from_nfr(nfr(availability=availability))
        assert policy.max_retries == retries
        assert policy.breaker_failure_threshold == threshold

    def test_latency_target_sets_deadline(self):
        policy = ResiliencePolicy.from_nfr(nfr(latency_ms=50))
        # Generously above p99 so cold starts never trip it.
        assert policy.deadline_s == pytest.approx(2.0)
        policy = ResiliencePolicy.from_nfr(nfr(latency_ms=200))
        assert policy.deadline_s == pytest.approx(5.0)
        assert ResiliencePolicy.from_nfr(nfr()).deadline_s is None

    def test_stale_reads_require_persistence(self):
        assert ResiliencePolicy.from_nfr(nfr(), persistent=True).stale_read_fallback
        assert not ResiliencePolicy.from_nfr(nfr(), persistent=False).stale_read_fallback

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_s": 0},
            {"backoff_factor": 0.5},
            {"backoff_max_s": 0.001},  # < base
            {"backoff_jitter": 1.5},
            {"deadline_s": 0},
            {"breaker_failure_threshold": 0},
            {"breaker_recovery_s": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            ResiliencePolicy(**kwargs)

    def test_backoff_grows_and_caps(self):
        policy = ResiliencePolicy(
            backoff_base_s=0.01, backoff_factor=2.0, backoff_max_s=0.05,
            backoff_jitter=0.0,
        )
        rng = random.Random(0)
        delays = [policy.backoff_s(attempt, rng) for attempt in range(1, 6)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_backoff_jitter_is_bounded_and_seeded(self):
        policy = ResiliencePolicy(backoff_base_s=0.01, backoff_jitter=0.5)
        a = [policy.backoff_s(1, random.Random(7)) for _ in range(3)]
        b = [policy.backoff_s(1, random.Random(7)) for _ in range(3)]
        assert a == b  # same seed, same delays
        assert all(0.01 <= d <= 0.015 for d in a)


class TestBreakerBoard:
    def make_board(self, env, threshold=3, recovery_s=5.0):
        events = EventLog(env, enabled=True)
        board = BreakerBoard(env, events=events)
        policy = ResiliencePolicy(
            breaker_failure_threshold=threshold, breaker_recovery_s=recovery_s
        )
        return board, policy, events

    def test_closed_board_is_free(self, env):
        board, _, _ = self.make_board(env)
        assert not board.active
        assert board.allow("C", "n0")
        assert board.state("C", "n0") == "closed"
        board.record_success("C", "n0")  # no-op on an empty board
        assert not board.active

    def test_opens_at_threshold_and_sheds(self, env):
        board, policy, events = self.make_board(env, threshold=3)
        for _ in range(2):
            board.record_failure("C", "n0", policy)
        assert board.state("C", "n0") == "closed"
        board.record_failure("C", "n0", policy)
        assert board.state("C", "n0") == "open"
        assert not board.allow("C", "n0")
        assert board.allow("C", "n1")  # other nodes unaffected
        assert board.allow("D", "n0")  # other classes unaffected
        assert [e.type for e in events.events("resilience.breaker_open")] == [
            "resilience.breaker_open"
        ]

    def test_success_resets_consecutive_failures(self, env):
        board, policy, _ = self.make_board(env, threshold=3)
        board.record_failure("C", "n0", policy)
        board.record_failure("C", "n0", policy)
        board.record_success("C", "n0")
        board.record_failure("C", "n0", policy)
        assert board.state("C", "n0") == "closed"  # not consecutive

    def test_half_open_probe_closes_or_reopens(self, env):
        board, policy, events = self.make_board(env, threshold=1, recovery_s=5.0)
        board.record_failure("C", "n0", policy)
        assert not board.allow("C", "n0")
        env.run(until=6.0)
        assert board.allow("C", "n0")  # half-open probe allowed
        assert board.state("C", "n0") == "half_open"
        board.record_failure("C", "n0", policy)  # probe fails
        assert board.state("C", "n0") == "open"
        env.run(until=12.0)
        assert board.allow("C", "n0")
        board.record_success("C", "n0")  # probe succeeds
        assert board.state("C", "n0") == "closed"
        kinds = [e.type for e in events.events()]
        assert "resilience.breaker_half_open" in kinds
        assert "resilience.breaker_close" in kinds
        breaker = board.get("C", "n0")
        assert breaker.opens == 2 and breaker.closes == 1

    def test_disabled_threshold_never_creates_breakers(self, env):
        board, _, _ = self.make_board(env)
        policy = ResiliencePolicy(breaker_failure_threshold=None)
        for _ in range(10):
            board.record_failure("C", "n0", policy)
        assert not board.active
        assert board.open_count() == 0

    def test_snapshot(self, env):
        board, policy, _ = self.make_board(env, threshold=1)
        board.record_failure("C", "n0", policy)
        assert board.snapshot() == {"C@n0": "open"}


class TestPolicyWiring:
    def test_policies_derived_from_nfr_at_deploy(self):
        platform = make_platform()
        ledger = platform.crm.policy_for("Ledger")
        assert ledger.max_retries == 4  # three nines
        assert ledger.stale_read_fallback  # persistent
        scratch = platform.crm.policy_for("Scratch")
        assert not scratch.stale_read_fallback  # ephemeral

    def test_operator_policy_override(self):
        platform = make_platform()
        custom = ResiliencePolicy(max_retries=0)
        platform.crm.set_policy("Ledger", custom)
        assert platform.crm.policy_for("Ledger") is custom


class TestInvokerResilience:
    def test_replicated_class_rides_out_partition(self):
        platform = make_platform(events=True)
        obj = platform.new_object("Ledger", object_id="acct-0")
        platform.invoke(obj, "add", {"amount": 5})
        owners = platform.crm.runtime("Ledger").dht.owners(obj)
        platform.network.fault_state().isolate([owners[0]])
        result = platform.invoke(obj, "add", {"amount": 5}, raise_on_error=False)
        assert result.ok, result.error
        assert platform.engine.fault_retries > 0
        assert platform.platform_events("resilience.retry")
        # Heal = clear the partition + anti-entropy (what the chaos
        # injector does): replicas reconverge on the newest version.
        platform.network.fault_state().clear_partition()
        platform.crm.runtime("Ledger").dht.rebalance()
        assert platform.get_object(obj)["state"]["balance"] == 10

    def test_retries_are_bounded_for_unreachable_ephemeral(self):
        platform = make_platform()
        obj = platform.new_object("Scratch", object_id="pad-0")
        owners = platform.crm.runtime("Scratch").dht.owners(obj)
        assert len(owners) == 1  # ephemeral template does not replicate
        platform.network.fault_state().isolate(owners)
        before = platform.engine.fault_retries
        result = platform.invoke(obj, "bump", raise_on_error=False)
        assert not result.ok
        assert result.error_type == "NetworkPartitionError"
        policy = platform.crm.policy_for("Scratch")
        assert platform.engine.fault_retries - before <= policy.max_retries
        with pytest.raises(NetworkPartitionError):
            platform.invoke(obj, "bump")

    def test_gateway_maps_partition_to_503(self):
        platform = make_platform()
        response = platform.http("POST", "/api/classes/Scratch", {"id": "pad-1"})
        obj = response.body["id"]
        owners = platform.crm.runtime("Scratch").dht.owners(obj)
        platform.network.fault_state().isolate(owners)
        response = platform.http("POST", f"/api/objects/{obj}/invokes/bump")
        assert response.status == 503
        assert response.body["type"] == "NetworkPartitionError"
        assert "partition" in response.body["error"]

    def test_stale_read_fallback_serves_persistent_reads(self):
        platform = make_platform(events=True)
        obj = platform.new_object("Ledger", object_id="acct-1")
        platform.invoke(obj, "add", {"amount": 7})
        platform.flush()  # make the durable copy current
        owners = platform.crm.runtime("Ledger").dht.owners(obj)
        platform.network.fault_state().isolate(owners)  # both replicas gone
        record = platform.get_object(obj)
        assert record["state"]["balance"] == 7
        assert platform.engine.stale_reads > 0
        assert platform.platform_events("resilience.stale_read")

    def test_breaker_opens_then_recloses_after_heal(self):
        platform = make_platform(events=True)
        obj = platform.new_object("Scratch", object_id="pad-2")
        owners = platform.crm.runtime("Scratch").dht.owners(obj)
        platform.network.fault_state().isolate(owners)
        policy = platform.crm.policy_for("Scratch")
        for _ in range(policy.breaker_failure_threshold + 1):
            platform.invoke(obj, "bump", raise_on_error=False)
        assert platform.engine.breakers.open_count() > 0
        assert platform.platform_events("resilience.breaker_open")
        # Heal, wait out the recovery window, and traffic closes it again.
        platform.network.fault_state().clear_partition()
        platform.advance(policy.breaker_recovery_s + 0.1)
        for _ in range(3):
            result = platform.invoke(obj, "bump", raise_on_error=False)
            assert result.ok
        # No breaker still sheds: probes either closed them or their
        # recovery window elapsed (half-open admits traffic).
        assert platform.engine.breakers.open_count() == 0
        assert "open" not in platform.engine.breakers.snapshot().values()
        assert platform.platform_events("resilience.breaker_close")

    def test_deadline_times_out_slow_offloads(self):
        platform = Oparaca(PlatformConfig(nodes=3))

        @platform.function("slow/op", service_time_s=30.0)
        def slow(ctx):
            return {}

        platform.deploy(
            """
name: slow-app
classes:
  - name: Slow
    qos:
      latency: 100
    keySpecs:
      - name: x
        type: INT
        default: 0
    functions:
      - name: op
        image: slow/op
"""
        )
        policy = platform.crm.policy_for("Slow")
        assert policy.deadline_s == pytest.approx(2.5)
        obj = platform.new_object("Slow", object_id="slow-0")
        result = platform.invoke(obj, "op", raise_on_error=False)
        assert not result.ok
        assert result.error_type == "InvocationTimeoutError"
        assert platform.engine.timeouts > 0
        response = platform.http("POST", f"/api/objects/{obj}/invokes/op")
        assert response.status == 504


class TestOneAttemptLoop:
    """Every engine write is placed, path-checked and retried by the same
    loop, and commit conflicts do not spend the fault budget."""

    def test_faults_and_cas_conflicts_have_separate_budgets(self, monkeypatch):
        platform = Oparaca(PlatformConfig(nodes=3, seed=0))

        @platform.function("acct/add", service_time_s=0.002)
        def add(ctx):
            ctx.state["n"] = ctx.state.get("n", 0) + 1
            return {"n": ctx.state["n"]}

        platform.deploy(
            """
name: budget-app
classes:
  - name: Account
    qos: {availability: 0.9999}
    keySpecs: [{name: n, type: INT, default: 0}]
    functions: [{name: add, image: acct/add}]
"""
        )
        assert platform.crm.policy_for("Account").max_retries == 5
        obj = platform.new_object("Account", object_id="acct-0")
        dht = platform.crm.runtime("Account").dht
        check_path, put_steps = dht.network.check_path, dht.put_steps
        paths = []

        def faulty_check_path(src, dst):
            # The load's own check passes; the offload's next four fail.
            paths.append(dst)
            if 2 <= len(paths) <= 5:
                raise NetworkPartitionError(f"injected: client cannot reach {dst}")
            check_path(src, dst)

        commits = []

        def racing_put_steps(*args, **kwargs):
            commits.append(args)
            if len(commits) == 1:
                raise ConcurrentModificationError("injected: lost one commit race")
            return put_steps(*args, **kwargs)

        monkeypatch.setattr(dht.network, "check_path", faulty_check_path)
        monkeypatch.setattr(dht, "put_steps", racing_put_steps)
        result = platform.invoke(obj, "add", raise_on_error=False)
        assert result.ok, result.error
        assert result.retries == 5  # four faults plus one conflict
        assert platform.engine.fault_retries == 4
        assert platform.engine.cas_conflicts == 1
        assert len(commits) == 2
        monkeypatch.undo()
        assert platform.get_object(obj)["state"]["n"] == 1

    def test_file_attach_obeys_the_path_check_like_update(self):
        platform = listing1_platform()
        obj = platform.new_object("Image", object_id="img-0")
        platform.flush()  # a durable copy, so loads fall back to it
        node = platform.crm.runtime("Image").router.place(obj)
        platform.network.fault_state().isolate([node])
        with pytest.raises(NetworkPartitionError):
            platform.invoke(obj, "update", {"state": {"width": 64}})
        with pytest.raises(NetworkPartitionError):
            platform.upload_file(obj, "image", b"png-bytes")
        platform.network.fault_state().clear_partition()
        assert platform.get_object(obj)["files"] == {}


class TestErrorBoundary:
    """Satellite bugfix: no raw exception may escape the engine or the
    gateway — everything surfaces as a structured OaasError payload."""

    def test_engine_wraps_internal_errors(self, monkeypatch):
        platform = make_platform()
        obj = platform.new_object("Ledger", object_id="acct-2")

        def explode(cls):
            raise KeyError(cls)

        monkeypatch.setattr(platform.crm, "runtime", explode)
        result = platform.invoke(obj, "add", {"amount": 1}, raise_on_error=False)
        assert not result.ok
        assert result.error_type == "InternalError"
        assert "KeyError" in result.error
        assert platform.engine.internal_errors > 0

    def test_gateway_wraps_internal_errors(self, monkeypatch):
        platform = make_platform()
        obj = platform.new_object("Ledger", object_id="acct-3")
        monkeypatch.setattr(
            platform.crm, "runtime", lambda cls: (_ for _ in ()).throw(KeyError(cls))
        )
        response = platform.http("GET", f"/api/objects/{obj}")
        assert response.status == 500
        assert response.body["type"] == "InternalError"
        assert "error" in response.body

    def test_gateway_wraps_routing_layer_exceptions(self, monkeypatch):
        platform = make_platform()
        monkeypatch.setattr(
            platform.engine,
            "list_objects",
            lambda cls: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        response = platform.http("GET", "/api/classes/Ledger/objects")
        assert response.status == 500
        assert response.body["type"] == "InternalError"

    def test_failures_without_record_still_attributed_to_class(self):
        platform = make_platform()
        obs = platform.monitoring.for_class("Scratch")
        obj = platform.new_object("Scratch", object_id="pad-9")
        owners = platform.crm.runtime("Scratch").dht.owners(obj)
        failed_before = obs.failed
        platform.network.fault_state().isolate(owners)
        platform.invoke(obj, "bump", raise_on_error=False)
        assert obs.failed == failed_before + 1


class TestGoldenResilience:
    """Every pinned scenario defends exactly as ``tests/golden/resilience.json``
    holds: per-request outcomes, ``resilience.*`` events, engine counters,
    breaker states and span trees."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(resilience_golden.GOLDEN.read_text())

    @pytest.mark.parametrize("name", list(resilience_golden.SCENARIOS))
    def test_scenario_defends_as_pinned(self, golden, name):
        captured = json.loads(json.dumps(resilience_golden.capture_scenario(name)))
        assert captured == golden[name]
