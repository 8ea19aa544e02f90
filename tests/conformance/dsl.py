"""Scenario DSL + runner + invariant checks for scheduler conformance.

A :class:`Scenario` is pure data: a seed, a scheduler config, and a
timeline of typed :class:`Step`\\ s.  :func:`run_scenario` replays it
against a fresh platform and returns a :class:`ScenarioResult` holding
everything the invariants need — the ledger audit, every worker
registration's transition history, the full event log, and its rendered
text (for determinism diffs).

:func:`random_scenario` derives an arbitrary chaos interleaving from an
integer seed, which is how the suite covers 100+ seeded interleavings
without hand-writing them.  :func:`qos_flood_scenario` replays the same
chaos timelines with the QoS plane on too — a Noisy flood beside a
``priority: 8`` Hot class on the one ``SimWorker`` pool — so fair
queueing and shedding are held to the same ledger invariants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import SchedulingError
from repro.invoker.request import InvocationRequest
from repro.platform.oparaca import Oparaca, PlatformConfig
from repro.qos.plane import QosConfig
from repro.scheduler import SchedulerConfig, WorkerStateMachine

CONFORMANCE_YAML = """
name: conformance
classes:
  - name: Probe
    keySpecs:
      - name: n
        type: INT
        default: 0
    functions:
      - name: bump
        image: probe/bump
"""

#: The package of scenarios that also turn the QoS plane on: Probe as
#: above, a latency-declared high-priority class, and a budget-capped
#: one to flood with.  Neither declares a throughput, so admission
#: rejects nothing and ``accepted == submitted`` still holds.
QOS_CONFORMANCE_YAML = CONFORMANCE_YAML + """
  - name: Hot
    qos: {latency: 100, priority: 8}
    keySpecs: [{name: n, type: INT, default: 0}]
    functions:
      - name: bump
        image: probe/bump
  - name: Noisy
    constraint: {budget: 10}
    keySpecs: [{name: n, type: INT, default: 0}]
    functions:
      - name: bump
        image: probe/bump
"""

#: Hot's declared latency above, in ms.
HOT_LATENCY_MS = 100.0

#: A low watermark and a fast controller, so a few hundred queued
#: invocations trip several shed passes inside scenario time.
SCENARIO_QOS = dict(shed_queue_depth=32, shed_check_interval_s=0.05)

#: Chaos-heavy but fast lifecycle: short beats so heartbeat loss
#: degrades and kills within scenario time; nonzero dispatch overhead
#: so crashes can land while an invocation is in flight.
SCENARIO_SCHEDULER = dict(
    enabled=True,
    pool_size=3,
    heartbeat_interval_s=0.1,
    degraded_after_misses=2,
    dead_after_misses=4,
    register_delay_s=0.02,
    install_delay_s=0.02,
    dispatch_overhead_s=0.002,
    replace_dead_workers=True,
)


# -- steps ------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One timed action on the scenario timeline."""

    at: float


@dataclass(frozen=True)
class Submit(Step):
    """Submit ``count`` async invocations against object ``object_key``
    of class ``cls``."""

    count: int = 1
    object_key: int = 0
    cls: str = "Probe"


@dataclass(frozen=True)
class RegisterWorker(Step):
    """Admit a (possibly returning) worker by name."""

    name: str | None = None


@dataclass(frozen=True)
class Drain(Step):
    """Gracefully retire a worker (queued work handed to peers)."""

    worker: str = "worker-0"


@dataclass(frozen=True)
class Crash(Step):
    """Kill a worker outright (epoch fence + requeue)."""

    worker: str = "worker-0"


@dataclass(frozen=True)
class LoseHeartbeats(Step):
    """Suppress a worker's heartbeats while it keeps executing."""

    worker: str = "worker-0"
    duration_s: float = 0.5


@dataclass(frozen=True)
class Slow(Step):
    """Multiply a worker's dispatch overhead for a while."""

    worker: str = "worker-0"
    factor: float = 4.0
    duration_s: float = 0.5


@dataclass(frozen=True)
class FailNode(Step):
    """Crash a VM; every worker on it dies with it."""

    node: str = "vm-0"


@dataclass(frozen=True)
class Scenario:
    """A named, seeded chaos interleaving."""

    name: str
    steps: tuple[Step, ...]
    seed: int = 0
    objects: int = 3
    settle_s: float = 30.0
    scheduler: dict[str, Any] = field(default_factory=lambda: dict(SCENARIO_SCHEDULER))
    #: ``QosConfig`` kwargs; ``None`` leaves the QoS plane off.
    qos: dict[str, Any] | None = None


@dataclass
class WorkerRecord:
    """One registration's history, detached from the live platform."""

    name: str
    epoch: int
    final_state: str
    machine: WorkerStateMachine


@dataclass
class Outcome:
    """How one submission ended, read back from the ledger."""

    cls: str
    state: str
    ok: bool | None
    error_type: str | None
    latency_s: float | None


@dataclass
class ScenarioResult:
    scenario: Scenario
    events_text: str
    events: list[Any]
    audit: dict[str, int]
    delivered: int
    submitted: int
    resolved: int
    workers: list[WorkerRecord]
    settled: bool
    skipped_steps: list[str]
    shed: int = 0
    outcomes: list[Outcome] = field(default_factory=list)
    #: The core's per-name epoch map at the end of the run.
    epochs: dict[str, int] = field(default_factory=dict)


# -- runner -----------------------------------------------------------------


def _bump(ctx):
    n = int(ctx.state.get("n", 0)) + 1
    ctx.state["n"] = n
    return {"n": n}


def build_platform(scenario: Scenario) -> Oparaca:
    platform = Oparaca(
        PlatformConfig(
            nodes=3,
            seed=scenario.seed,
            events_enabled=True,
            scheduler=SchedulerConfig(**scenario.scheduler),
            qos=QosConfig(enabled=scenario.qos is not None, **(scenario.qos or {})),
        )
    )
    platform.register_image("probe/bump", _bump, service_time_s=0.002)
    platform.deploy(CONFORMANCE_YAML if scenario.qos is None else QOS_CONFORMANCE_YAML)
    return platform


def _apply(platform, step: Step, object_ids, requests, skipped) -> None:
    plane = platform.scheduler_plane
    if isinstance(step, Submit):
        ids = object_ids[step.cls]
        for _ in range(step.count):
            request = InvocationRequest(
                object_id=ids[step.object_key % len(ids)], fn_name="bump"
            )
            platform.queue.submit(request)
            requests.append((step.cls, request))
    elif isinstance(step, RegisterWorker):
        try:
            plane.register_worker(step.name)
        except SchedulingError as exc:  # name still live: a no-op rejoin
            skipped.append(f"register {step.name}: {exc}")
    elif isinstance(step, Drain):
        try:
            plane.drain_worker(step.worker)
        except SchedulingError as exc:  # unknown or already dead/draining
            skipped.append(f"drain {step.worker}: {exc}")
    elif isinstance(step, Crash):
        if not plane.crash_worker(step.worker, reason="scenario"):
            skipped.append(f"crash {step.worker}: not live")
    elif isinstance(step, LoseHeartbeats):
        if not plane.suppress_heartbeats(step.worker, step.duration_s):
            skipped.append(f"heartbeat-loss {step.worker}: not live")
    elif isinstance(step, Slow):
        if plane.set_worker_slow(step.worker, step.factor):
            def clear(worker=step.worker):
                yield platform.env.timeout(step.duration_s)
                plane.clear_worker_slow(worker)

            platform.env.process(clear())
        else:
            skipped.append(f"slow {step.worker}: not live")
    elif isinstance(step, FailNode):
        if step.node in platform.cluster.node_names:
            platform.fail_node(step.node)
        else:
            skipped.append(f"fail-node {step.node}: unknown")
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown step {step!r}")


def record_registrations(core) -> list:
    """The ports registered with ``core``: the live ones now, then every
    later one as it registers.  The core lets a port go when it retires;
    the harness keeps them all to check each one's history."""
    ports = list(core.workers.values())
    add_worker = core.add_worker

    def recording(port) -> None:
        ports.append(port)
        add_worker(port)

    core.add_worker = recording
    return ports


def run_scenario(scenario: Scenario) -> ScenarioResult:
    platform = build_platform(scenario)
    plane = platform.scheduler_plane
    ports = record_registrations(plane.core)
    object_ids: dict[str, list[str]] = {}
    for cls in platform.crm.deployed_classes():
        for index in range(scenario.objects):
            response = platform.http(
                "POST", f"/api/classes/{cls}", {"id": f"{cls}/o{index}"}
            )
            assert response.ok, response.body
            object_ids.setdefault(cls, []).append(response.body["id"])

    requests: list[tuple[str, InvocationRequest]] = []
    skipped: list[str] = []
    # Steps run in timeline order; ties keep authored order (stable sort).
    steps = sorted(scenario.steps, key=lambda s: s.at)
    for step in steps:
        if step.at > platform.now:
            platform.advance(step.at - platform.now)
        _apply(platform, step, object_ids, requests, skipped)

    # Settle: the pool self-heals (replacements register), so every
    # accepted invocation must eventually complete.  Bounded, not
    # unbounded: a liveness bug fails the settled flag, not the suite's
    # wall clock.
    deadline = platform.now + scenario.settle_s
    while plane.outstanding and platform.now < deadline:
        platform.advance(0.25)
    settled = plane.outstanding == 0

    workers = [
        WorkerRecord(
            name=worker.name,
            epoch=worker.epoch,
            final_state=worker.state.value,
            machine=worker.machine,
        )
        for worker in ports
    ]
    outcomes = []
    for cls, request in requests:
        entry = plane.ledger.entry(request.request_id)
        result = platform.queue.result(request.request_id)
        outcomes.append(
            Outcome(
                cls=cls,
                state=entry.state.value,
                ok=entry.ok,
                error_type=result.error_type if result is not None else None,
                latency_s=(
                    entry.completed_at - entry.accepted_at
                    if entry.completed_at is not None
                    else None
                ),
            )
        )
    audit = plane.ledger.audit()
    delivered = plane.delivered
    resolved = platform.queue.completed
    events = list(platform.events.events())
    events_text = platform.events.render()
    platform.shutdown()
    return ScenarioResult(
        scenario=scenario,
        events_text=events_text,
        events=events,
        audit=audit,
        delivered=delivered,
        submitted=platform.queue.submitted,
        resolved=resolved,
        workers=workers,
        settled=settled,
        skipped_steps=skipped,
        shed=platform.queue.shed,
        outcomes=outcomes,
        epochs=dict(plane.core.epochs),
    )


# -- invariants -------------------------------------------------------------


def check_exactly_once(result: ScenarioResult) -> list[str]:
    """No accepted invocation dropped, none delivered twice."""
    problems = []
    audit = result.audit
    if not result.settled:
        problems.append(
            f"did not settle: {audit['outstanding']} outstanding after "
            f"{result.scenario.settle_s}s"
        )
    if audit["accepted"] != result.submitted:
        problems.append(
            f"accepted {audit['accepted']} != submitted {result.submitted}"
        )
    if audit["completed"] != audit["accepted"] - audit["outstanding"]:
        problems.append("ledger conservation violated: " + repr(audit))
    if result.delivered != audit["completed"]:
        problems.append(
            f"delivered {result.delivered} != completed {audit['completed']} "
            "(a completion was double-delivered or lost)"
        )
    if result.resolved != audit["completed"]:
        problems.append(
            f"invoker resolved {result.resolved} != completed {audit['completed']}"
        )
    return problems


#: Lifecycle event type -> the state the worker is in afterwards.
_STATE_AFTER = {
    "scheduler.register": "REGISTERED",
    "scheduler.ready": "READY",
    "scheduler.degraded": "DEGRADED",
    "scheduler.recovered": "READY",
    "scheduler.draining": "DRAINING",
    "scheduler.dead": "DEAD",
}


def check_no_dispatch_to_unready(result: ScenarioResult) -> list[str]:
    """Replays the event log: every dispatch must land on a worker whose
    most recent lifecycle event (in log order) left it READY."""
    problems = []
    state: dict[str, str] = {}
    for event in result.events:
        after = _STATE_AFTER.get(event.type)
        if after is not None:
            state[event.fields["worker"]] = after
            continue
        if event.type == "scheduler.dispatch":
            worker = event.fields["worker"]
            current = state.get(worker)
            if current != "READY":
                problems.append(
                    f"dispatch to {worker} in state {current} at t={event.at:.4f} "
                    f"(seq {event.seq})"
                )
    return problems


def check_monotone(result: ScenarioResult) -> list[str]:
    """Every registration's recorded history is phase-monotone over
    legal edges and matches its final state."""
    problems = []
    for record in result.workers:
        if not record.machine.is_monotone():
            history = [t.to_dict() for t in record.machine.history]
            problems.append(
                f"{record.name} (epoch {record.epoch}) history not monotone: "
                f"{history}"
            )
    return problems


def check_epochs(result: ScenarioResult) -> list[str]:
    """The core's epoch map holds, for every name ever registered and no
    other, the epoch the latest registration under it ended with — what
    a rejoin under that name must exceed."""
    last = {record.name: record.epoch for record in result.workers}
    if last == result.epochs:
        return []
    return [f"epoch map {result.epochs} != last epoch per name {last}"]


def check_shed_is_ledgered(result: ScenarioResult) -> list[str]:
    """Every shed submission is a ledger completion (a failed one) and
    the invoker's and the controller's shed counts match."""
    problems = []
    shed = [o for o in result.outcomes if o.error_type == "OverloadError"]
    if len(shed) != result.shed:
        problems.append(f"{len(shed)} OverloadError results != shed {result.shed}")
    evented = sum(
        e.fields["count"] for e in result.events if e.type == "qos.shed"
    )
    if evented != result.shed:
        problems.append(f"qos.shed events total {evented} != shed {result.shed}")
    for outcome in shed:
        if outcome.state != "COMPLETED" or outcome.ok is not False:
            problems.append(f"shed submission not a failed completion: {outcome}")
    return problems


def latency_p95_ms(outcomes: list[Outcome]) -> float:
    """Accept-to-completion p95 of the successful ``outcomes``."""
    latencies = sorted(o.latency_s for o in outcomes if o.ok)
    return latencies[int(0.95 * len(latencies))] * 1000.0


def check_all(result: ScenarioResult) -> list[str]:
    return (
        check_exactly_once(result)
        + check_no_dispatch_to_unready(result)
        + check_monotone(result)
        + check_epochs(result)
        + check_shed_is_ledgered(result)
    )


# -- random scenario generation --------------------------------------------


def random_scenario(seed: int, *, heavy: bool = False) -> Scenario:
    """Derive an arbitrary chaos interleaving from ``seed``.

    ``heavy`` widens the step budget (the ``--chaos`` CI variant).
    """
    rng = random.Random(seed ^ 0x5EED)
    horizon = 3.0
    steps: list[Step] = []
    submit_budget = rng.randint(8, 20) * (2 if heavy else 1)
    for _ in range(submit_budget):
        steps.append(
            Submit(
                at=round(rng.uniform(0.0, horizon), 4),
                count=rng.randint(1, 3),
                object_key=rng.randrange(3),
            )
        )
    chaos_budget = rng.randint(2, 5) * (2 if heavy else 1)
    workers = [f"worker-{i}" for i in range(5)]
    failed_node = False
    for _ in range(chaos_budget):
        at = round(rng.uniform(0.2, horizon), 4)
        kind = rng.randrange(6)
        if kind == 0:
            steps.append(Crash(at=at, worker=rng.choice(workers)))
        elif kind == 1:
            steps.append(Drain(at=at, worker=rng.choice(workers)))
        elif kind == 2:
            steps.append(
                LoseHeartbeats(
                    at=at,
                    worker=rng.choice(workers),
                    duration_s=round(rng.uniform(0.15, 0.8), 4),
                )
            )
        elif kind == 3:
            steps.append(
                Slow(
                    at=at,
                    worker=rng.choice(workers),
                    factor=rng.choice([2.0, 4.0, 8.0]),
                    duration_s=round(rng.uniform(0.2, 0.8), 4),
                )
            )
        elif kind == 4:
            steps.append(RegisterWorker(at=at, name=rng.choice(workers)))
        elif not failed_node:
            failed_node = True
            steps.append(FailNode(at=at, node=f"vm-{rng.randrange(3)}"))
    return Scenario(name=f"random-{seed}", steps=tuple(steps), seed=seed)


#: When the flood starts: late enough that the warm-up submissions at
#: t=0.05 have paid every class's first-touch cold start (~1.8 s).
FLOOD_AT = 2.5


def qos_flood_scenario(seed: int | None = None) -> Scenario:
    """Noisy floods (150 deep, every 0.2 s) beside a steady 50 rps Hot
    stream, with the scheduler *and* QoS planes on.  With a ``seed``,
    :func:`random_scenario`'s chaos steps for that seed play out,
    compressed into the flood window; without one, a drain and a crash
    land in the first flood."""
    warm = tuple(
        Submit(at=0.05, object_key=key, cls=cls)
        for cls in ("Hot", "Noisy")
        for key in range(6)
    )
    flood = tuple(
        Submit(at=round(FLOOD_AT + 0.2 * wave, 4), count=25, object_key=key, cls="Noisy")
        for wave in range(4)
        for key in range(6)
    )
    hot = tuple(
        Submit(at=round(FLOOD_AT + 0.02 * i, 4), object_key=i, cls="Hot")
        for i in range(50)
    )
    if seed is None:
        name = "qos-flood-drain-crash"
        chaos: tuple[Step, ...] = (
            Drain(at=FLOOD_AT + 0.01, worker="worker-0"),
            Crash(at=FLOOD_AT + 0.03, worker="worker-1"),
        )
    else:
        name = f"qos-flood-{seed}"
        chaos = tuple(
            replace(step, at=round(FLOOD_AT + (step.at - 0.2) / 3.5, 4))
            for step in random_scenario(seed).steps
            if not isinstance(step, Submit)
        )
    return Scenario(
        name=name,
        steps=warm + flood + hot + chaos,
        seed=seed or 0,
        objects=6,
        qos=dict(SCENARIO_QOS),
    )
