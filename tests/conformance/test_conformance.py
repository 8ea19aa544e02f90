"""Lifecycle-conformance suite: hand-written protocol scenarios plus
100 seeded random chaos interleavings, each checked against the core
invariants (exactly-once completion, dispatch-only-to-READY, monotone
worker histories, deterministic replay)."""

from __future__ import annotations

import pytest

from repro.scheduler import WorkerState

from tests.conformance.dsl import (
    HOT_LATENCY_MS,
    Crash,
    Drain,
    FailNode,
    LoseHeartbeats,
    RegisterWorker,
    Scenario,
    Slow,
    Submit,
    check_all,
    check_exactly_once,
    latency_p95_ms,
    qos_flood_scenario,
    random_scenario,
    run_scenario,
)

# -- hand-written protocol scenarios ---------------------------------------

NAMED_SCENARIOS = [
    Scenario(
        name="steady",
        steps=(Submit(at=0.5, count=12), Submit(at=1.0, count=8, object_key=1)),
    ),
    Scenario(
        name="drain-under-load",
        steps=(
            Submit(at=0.5, count=20),
            Drain(at=0.51, worker="worker-0"),
            Submit(at=0.7, count=10, object_key=1),
        ),
    ),
    Scenario(
        name="crash-in-flight",
        # Crash lands inside the dispatch overhead + service window of a
        # just-dispatched batch: queued + in-flight items must requeue.
        steps=(
            Submit(at=0.5, count=20),
            Crash(at=0.501, worker="worker-0"),
            Crash(at=0.502, worker="worker-1"),
        ),
    ),
    Scenario(
        name="zombie-heartbeat-loss",
        # Worker keeps executing while silent: degraded -> dead -> its
        # late results are fenced, the redispatched twins complete.
        steps=(
            Submit(at=0.5, count=15),
            LoseHeartbeats(at=0.5, worker="worker-0", duration_s=2.0),
            Submit(at=0.9, count=10, object_key=2),
        ),
    ),
    Scenario(
        name="mid-drain-crash",
        steps=(
            Submit(at=0.5, count=18),
            Drain(at=0.505, worker="worker-1"),
            Crash(at=0.51, worker="worker-1"),
        ),
    ),
    Scenario(
        name="node-failure",
        steps=(
            Submit(at=0.5, count=16),
            FailNode(at=0.52, node="vm-0"),
            Submit(at=0.8, count=8, object_key=1),
        ),
    ),
    Scenario(
        name="slow-worker-rebind",
        steps=(
            Slow(at=0.3, worker="worker-0", factor=8.0, duration_s=1.0),
            Submit(at=0.5, count=20),
            LoseHeartbeats(at=0.6, worker="worker-2", duration_s=0.5),
        ),
    ),
    Scenario(
        name="rejoin-after-crash",
        steps=(
            Submit(at=0.5, count=10),
            Crash(at=0.6, worker="worker-2"),
            RegisterWorker(at=1.2, name="worker-2"),
            Submit(at=1.5, count=10, object_key=1),
        ),
    ),
]


@pytest.mark.parametrize(
    "scenario", NAMED_SCENARIOS, ids=[s.name for s in NAMED_SCENARIOS]
)
def test_named_scenario_invariants(scenario):
    result = run_scenario(scenario)
    assert check_all(result) == []


def test_crash_in_flight_actually_requeues():
    result = run_scenario(NAMED_SCENARIOS[2])
    assert result.audit["requeues"] > 0
    assert check_exactly_once(result) == []


def test_zombie_results_are_fenced_not_double_delivered():
    result = run_scenario(NAMED_SCENARIOS[3])
    # The zombie was declared dead while executing; whether its orphan
    # result raced the redispatched twin or not, delivery stayed single.
    assert result.delivered == result.audit["completed"]
    dead = [
        e
        for e in result.events
        if e.type == "scheduler.dead"
        and e.fields.get("reason") == "heartbeat-timeout"
    ]
    assert dead, "heartbeat loss never escalated to a dead declaration"


def test_drain_retires_worker_and_loses_nothing():
    result = run_scenario(NAMED_SCENARIOS[1])
    drained = [r for r in result.workers if r.name == "worker-0"]
    assert drained and drained[0].final_state == WorkerState.DEAD.value
    states = [t.target for t in drained[0].machine.history]
    assert WorkerState.DRAINING in states
    assert check_exactly_once(result) == []


def test_node_failure_kills_colocated_workers():
    result = run_scenario(NAMED_SCENARIOS[5])
    reasons = {
        e.fields["reason"]
        for e in result.events
        if e.type == "scheduler.dead"
    }
    assert "node-failure" in reasons
    assert check_all(result) == []


# -- scheduler and QoS planes together ---------------------------------------


def test_qos_flood_with_drain_and_crash_keeps_hot_fast_and_ledger_whole():
    """Fair queueing and shedding act inside the ``SimWorker`` pool: Hot
    is served around the Noisy flood, Noisy is shed past the watermark
    through the ledger, and a drain plus a crash mid-flood lose and
    duplicate nothing."""
    result = run_scenario(qos_flood_scenario())
    assert check_all(result) == []
    assert result.audit["requeues"] > 0
    measured = result.outcomes[12:]  # past the 12 warm-up submissions
    hot = [o for o in measured if o.cls == "Hot"]
    assert len(hot) == 50 and all(o.ok for o in hot)
    assert latency_p95_ms(hot) <= HOT_LATENCY_MS
    noisy = [o for o in measured if o.cls == "Noisy"]
    shed = [o for o in noisy if o.error_type == "OverloadError"]
    assert len(shed) == result.shed > 0  # only Noisy paid
    assert sum(1 for o in noisy if o.ok) + len(shed) == len(noisy) == 600
    assert result.audit["accepted"] == result.audit["completed"] == 662


@pytest.mark.parametrize("seed", range(25))
def test_qos_flood_under_random_interleaving_invariants(seed):
    result = run_scenario(qos_flood_scenario(seed))
    problems = check_all(result)
    assert problems == [], (
        f"seed {seed} violated invariants: {problems}\n"
        f"skipped steps: {result.skipped_steps}"
    )
    assert result.shed > 0
    assert all(o.state == "COMPLETED" for o in result.outcomes)


def test_qos_flood_replays_byte_identically():
    first = run_scenario(qos_flood_scenario(7))
    second = run_scenario(qos_flood_scenario(7))
    assert first.events_text == second.events_text
    assert first.audit == second.audit


# -- 100 seeded random interleavings ---------------------------------------


@pytest.mark.parametrize("seed", range(100))
def test_random_interleaving_invariants(seed):
    result = run_scenario(random_scenario(seed))
    problems = check_all(result)
    assert problems == [], (
        f"seed {seed} violated invariants: {problems}\n"
        f"skipped steps: {result.skipped_steps}"
    )


@pytest.mark.parametrize("seed", [0, 17, 42])
def test_random_interleaving_replays_byte_identically(seed):
    first = run_scenario(random_scenario(seed))
    second = run_scenario(random_scenario(seed))
    assert first.events_text == second.events_text
    assert first.audit == second.audit


# -- heavier --chaos variants ----------------------------------------------


@pytest.mark.chaos
@pytest.mark.parametrize("seed", range(100, 125))
def test_heavy_interleaving_invariants(seed):
    result = run_scenario(random_scenario(seed, heavy=True))
    problems = check_all(result)
    assert problems == [], (
        f"heavy seed {seed} violated invariants: {problems}\n"
        f"skipped steps: {result.skipped_steps}"
    )


@pytest.mark.chaos
@pytest.mark.parametrize("seed", [101, 113])
def test_heavy_interleaving_replays_byte_identically(seed):
    first = run_scenario(random_scenario(seed, heavy=True))
    second = run_scenario(random_scenario(seed, heavy=True))
    assert first.events_text == second.events_text
