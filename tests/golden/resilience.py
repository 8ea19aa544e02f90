"""Capture ``resilience.json``: how the invocation engine defends a
class's availability, request by request.

``chaos.json`` pins what a fault plan narrates; this file pins what the
engine's retry, deadline, breaker, stale-read and compare-and-put
machinery does about it.  Every scenario runs on a fresh seeded
platform with tracing and events on, and pins:

* each request's ``(label, ok, error_type, retries, latency_s)``;
* every ``resilience.*`` event, in order;
* the engine counters (``fault_retries``, ``timeouts``,
  ``stale_reads``, ``cas_conflicts``);
* ``engine.breakers.snapshot()``;
* each request's span tree as ``(name, start, end, attrs)`` — no span
  ids — plus the spans recorded under no trace id and under the
  ``"resilience"`` trace (breaker transitions).

The scenarios:

* ``replicated-owner-isolated`` — a replicated class with one owner
  isolated: a retry, then ok;
* ``ephemeral-exhausted`` — an ephemeral class with its owner isolated:
  retries exhausted, and a 503 at the gateway;
* ``stale-read`` — a persistent class with every owner isolated: the
  read is served from the document store;
* ``deadline`` — a latency-declared class on slowed pods: the offload
  misses its deadline until the pods recover;
* ``update-delete`` — the ``update`` and ``delete`` builtins under an
  owner partition, replicated (retried onto a replica) and ephemeral
  (exhausted);
* ``breaker-heal`` — a breaker that opens, half-opens and closes across
  a heal;
* ``cas-conflicts`` — eight concurrent writers on one object, the
  last of which runs out of commit attempts.

``tests/test_resilience.py`` asserts each scenario's capture equals this
file.  The capture is deterministic: run it under two
``PYTHONHASHSEED`` values and the files are identical.

Regenerate (only when the engine's defence is meant to change)::

    PYTHONPATH=src python -m tests.golden.resilience [out]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Callable

from repro.chaos import FaultPlan, SlowPods
from repro.invoker.request import InvocationRequest, InvocationResult
from repro.invoker.resilience import RESILIENCE_TRACE_ID
from repro.platform.oparaca import Oparaca

from tests.helpers import make_platform

GOLDEN = Path(__file__).resolve().parent / "resilience.json"

PACKAGE = """
name: resilience-golden
classes:
  - name: Ledger
    qos: {availability: 0.999}
    keySpecs: [{name: balance, type: INT, default: 0}]
    functions: [{name: add, image: ledger/add}]
  - name: Scratch
    qos: {availability: 0.999}
    constraint: {persistent: false}
    keySpecs: [{name: hits, type: INT, default: 0}]
    functions: [{name: bump, image: scratch/bump}]
  - name: Slow
    qos: {latency: 100, availability: 0.99}
    keySpecs: [{name: n, type: INT, default: 0}]
    functions: [{name: bump, image: slow/bump}]
"""


def _add(ctx):
    ctx.state["balance"] = ctx.state.get("balance", 0) + int(ctx.payload.get("amount", 1))
    return {"balance": ctx.state["balance"]}


def _bump_hits(ctx):
    ctx.state["hits"] = ctx.state.get("hits", 0) + 1
    return {"hits": ctx.state["hits"]}


def _bump_n(ctx):
    ctx.state["n"] = int(ctx.state.get("n") or 0) + 1
    return {"n": ctx.state["n"]}


HANDLERS = {
    "ledger/add": (_add, 0.002),
    "scratch/bump": (_bump_hits, 0.002),
    "slow/bump": (_bump_n, 0.05),
}


class Run:
    """One scenario's platform plus the requests it recorded."""

    def __init__(self, seed: int = 3) -> None:
        self.platform = make_platform(
            PACKAGE, HANDLERS, seed=seed, tracing_enabled=True, events_enabled=True
        )
        self.requests: list[tuple[str, bool, str | None, int, float]] = []
        self.traces: list[str] = []

    def record(self, label: str, result: InvocationResult) -> InvocationResult:
        self.requests.append(
            (label, result.ok, result.error_type, result.retries, result.latency_s)
        )
        self.traces.append(result.request_id)
        return result

    def invoke(self, label: str, obj: str, fn: str, payload=None) -> InvocationResult:
        return self.record(
            label, self.platform.invoke(obj, fn, payload or {}, raise_on_error=False)
        )

    def owners(self, cls: str, obj: str) -> tuple[str, ...]:
        return self.platform.crm.runtime(cls).dht.owners(obj)

    def isolate(self, nodes) -> None:
        self.platform.network.fault_state().isolate(nodes)

    def heal(self, cls: str) -> None:
        # What the chaos injector does: clear the cut, then anti-entropy.
        self.platform.network.fault_state().clear_partition()
        self.platform.crm.runtime(cls).dht.rebalance()


def replicated_owner_isolated() -> Run:
    run = Run()
    obj = run.platform.new_object("Ledger", object_id="acct-0")
    run.platform.invoke(obj, "add", {"amount": 5})
    run.isolate([run.owners("Ledger", obj)[0]])
    for i in range(3):
        run.invoke(f"add-{i}", obj, "add", {"amount": 5})
    run.heal("Ledger")
    run.invoke("get-healed", obj, "get")
    return run


def ephemeral_exhausted() -> Run:
    run = Run()
    obj = run.platform.new_object("Scratch", object_id="pad-0")
    run.platform.invoke(obj, "bump")
    run.isolate(run.owners("Scratch", obj))
    run.invoke("bump", obj, "bump")
    response = run.platform.http("POST", f"/api/objects/{obj}/invokes/bump")
    status = f"{response.status} {response.body.get('type')}"
    run.requests.append(("http-bump", response.status == 200, status, 0, 0.0))
    return run


def stale_read() -> Run:
    run = Run()
    obj = run.platform.new_object("Ledger", object_id="acct-1")
    run.platform.invoke(obj, "add", {"amount": 7})
    run.platform.flush()
    run.isolate(run.owners("Ledger", obj))
    run.invoke("get", obj, "get")
    run.invoke("add", obj, "add", {"amount": 1})
    return run


def deadline() -> Run:
    run = Run()
    obj = run.platform.new_object("Slow", object_id="slow-0")
    run.platform.invoke(obj, "bump")
    run.platform.inject_chaos(
        FaultPlan(
            "slow-pods",
            (SlowPods(at=run.platform.now + 0.5, duration_s=12.0, factor=80.0, cls="Slow"),),
        )
    )
    run.platform.advance(1.0)
    run.invoke("bump-slowed", obj, "bump")
    run.platform.advance(15.0)
    run.invoke("bump-recovered", obj, "bump")
    return run


def update_delete() -> Run:
    run = Run()
    ledger = run.platform.new_object("Ledger", object_id="acct-2")
    pad = run.platform.new_object("Scratch", object_id="pad-1")
    ledger_node = run.platform.crm.runtime("Ledger").router.place(ledger)
    pad_node = run.platform.crm.runtime("Scratch").router.place(pad)
    run.isolate([ledger_node])
    run.invoke("ledger-update", ledger, "update", {"state": {"balance": 9}})
    run.invoke("ledger-get", ledger, "get")
    run.invoke("ledger-delete", ledger, "delete")
    run.heal("Ledger")
    run.isolate([pad_node])
    run.invoke("pad-update", pad, "update", {"state": {"hits": 4}})
    run.invoke("pad-delete", pad, "delete")
    return run


def breaker_heal() -> Run:
    run = Run()
    obj = run.platform.new_object("Scratch", object_id="pad-2")
    run.isolate(run.owners("Scratch", obj))
    policy = run.platform.crm.policy_for("Scratch")
    for i in range(policy.breaker_failure_threshold + 1):
        run.invoke(f"bump-cut-{i}", obj, "bump")
    run.heal("Scratch")
    run.platform.advance(policy.breaker_recovery_s + 0.1)
    for i in range(3):
        run.invoke(f"bump-healed-{i}", obj, "bump")
    return run


def cas_conflicts() -> Run:
    run = Run()
    obj = run.platform.new_object("Ledger", object_id="acct-3")
    run.platform.invoke(obj, "add")  # warm: every writer below is a hot start
    writers = [
        run.platform.engine.invoke(
            InvocationRequest(object_id=obj, fn_name="add", payload={"amount": i + 1})
        )
        for i in range(8)
    ]
    run.platform.advance(2.0)
    for i, writer in enumerate(writers):
        run.record(f"writer-{i}", writer.value)
    run.invoke("get", obj, "get")
    return run


SCENARIOS: dict[str, Callable[[], Run]] = {
    "replicated-owner-isolated": replicated_owner_isolated,
    "ephemeral-exhausted": ephemeral_exhausted,
    "stale-read": stale_read,
    "deadline": deadline,
    "update-delete": update_delete,
    "breaker-heal": breaker_heal,
    "cas-conflicts": cas_conflicts,
}


def _spans(platform: Oparaca, trace_id: str | None) -> list[tuple]:
    return [
        (span.name, span.start, span.end, span.attrs)
        for span in platform.tracer.trace(trace_id)
    ]


def capture_scenario(name: str) -> dict[str, Any]:
    """Run one scenario and return what the engine did about its faults."""
    run = SCENARIOS[name]()
    platform, engine = run.platform, run.platform.engine
    platform.shutdown()
    return {
        "requests": run.requests,
        "events": [
            (event.at, event.type, event.fields)
            for event in platform.events
            if event.type.startswith("resilience.")
        ],
        "counters": {
            "fault_retries": engine.fault_retries,
            "timeouts": engine.timeouts,
            "stale_reads": engine.stale_reads,
            "cas_conflicts": engine.cas_conflicts,
        },
        "breakers": engine.breakers.snapshot(),
        "spans": [_spans(platform, trace_id) for trace_id in run.traces],
        "untraced_spans": _spans(platform, None),
        "resilience_spans": _spans(platform, RESILIENCE_TRACE_ID),
    }


def capture() -> dict[str, Any]:
    # Round-trip through JSON so tuples compare as the lists on disk.
    return json.loads(json.dumps({name: capture_scenario(name) for name in SCENARIOS}))


def main(argv: list[str]) -> int:
    path = Path(argv[0]) if argv else GOLDEN
    path.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
