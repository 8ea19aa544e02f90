"""Capture ``nfr.json``: how the NFR report and the SLO evaluator judge
one declared requirement set.

Every scenario runs with the metrics plane on (so the SLO evaluator
watches each deployed class) and pins, after the run:

* the ``nfr_report()`` rows;
* ``SloEvaluator.report()`` — objectives, burn, budget and the alert
  history;
* every ``slo.alert`` / ``slo.resolve`` event, in order.

The scenarios:

* ``federation`` and ``node-crash`` — the chaos golden's plans
  (``tests/golden/chaos.py``), driven the same way;
* ``latency-burn`` — a ``latency: 50`` class whose requests take 200 ms
  for five seconds, then 10 ms;
* ``throughput-deficit`` — a ``throughput: 400`` class pinned to one
  two-slot replica under twelve closed-loop callers (saturated);
* ``availability-burn`` — an ``availability: 0.99`` class whose handler
  fails for three seconds;
* ``rpo-miss`` — a ``persistence: standard`` class whose snapshot cuts
  fail under storage faults until its node crashes, so the measured RPO
  exceeds the policy's budget (one cut interval).

``tests/test_nfr_table.py`` asserts each scenario's capture equals this
file.  The capture is deterministic: run it under two
``PYTHONHASHSEED`` values and the files are identical.

Regenerate (only when a verdict or an alert is meant to change)::

    PYTHONPATH=src python -m tests.golden.nfr [out]
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Callable

from repro.crm.template import ClassRuntimeTemplate, RuntimeConfig, TemplateCatalog
from repro.chaos import FaultPlan, NodeCrash, StorageFaults
from repro.durability.plane import DurabilityConfig
from repro.invoker.request import InvocationRequest
from repro.monitoring.plane import MetricsConfig
from repro.platform.oparaca import Oparaca

from tests.golden import chaos
from tests.helpers import make_platform

GOLDEN = Path(__file__).resolve().parent / "nfr.json"
METRICS = MetricsConfig(enabled=True)


def _drive(platform: Oparaca, calls: list, until: float, payload=lambda now: {}) -> None:
    """One synchronous call every ``chaos.INTERVAL_S`` until ``until``."""
    tick = 0
    while platform.now < until:
        obj, fn = calls[tick % len(calls)]
        platform.invoke(obj, fn, {"amount": 1, **payload(platform.now)}, raise_on_error=False)
        platform.advance(chaos.INTERVAL_S)
        tick += 1


def chaos_scenario(name: str) -> Callable[[], Oparaca]:
    def run() -> Oparaca:
        build, plan, _async = chaos.CASES[name]
        platform, calls = build(metrics=METRICS)
        platform.inject_chaos(plan)
        _drive(platform, calls, plan.end_s + 2.0)
        return platform

    return run


def _work(ctx):
    if ctx.payload.get("fail"):
        raise RuntimeError("injected failure")
    return {"ok": True}


def latency_burn() -> Oparaca:
    platform = make_platform(
        "classes:\n"
        "  - name: Slow\n"
        "    qos: {latency: 50}\n"
        "    functions: [{name: work, image: t/work}]\n",
        {"t/work": (_work, lambda task: float(task.payload.get("delay", 0.01)))},
        seed=11,
        events_enabled=True,
        metrics=METRICS,
    )
    obj = platform.new_object("Slow")
    _drive(platform, [(obj, "work")], 25.0, lambda now: {"delay": 0.2} if 1.0 <= now < 6.0 else {})
    return platform


def throughput_deficit() -> Oparaca:
    pinned = TemplateCatalog(
        [ClassRuntimeTemplate(name="pinned", config=RuntimeConfig(engine="deployment"))]
    )
    platform = make_platform(
        "classes:\n"
        "  - name: Busy\n"
        "    qos: {throughput: 400}\n"
        "    functions:\n"
        "      - {name: work, image: t/slow, provision: {concurrency: 2, minScale: 1}}\n",
        {"t/slow": (_work, 0.2)},
        seed=11,
        events_enabled=True,
        catalog=pinned,
        metrics=METRICS,
    )
    obj = platform.new_object("Busy")

    def client(env):
        while env.now < 10.0:
            yield platform.engine.invoke(InvocationRequest(object_id=obj, fn_name="work"))

    for _ in range(12):
        platform.env.process(client(platform.env))
    platform.env.run(until=8.0)
    return platform


def availability_burn() -> Oparaca:
    platform = make_platform(
        "classes:\n"
        "  - name: Flaky\n"
        "    qos: {availability: 0.99}\n"
        "    functions: [{name: work, image: t/work}]\n",
        {"t/work": (_work, 0.005)},
        seed=11,
        events_enabled=True,
        metrics=METRICS,
    )
    obj = platform.new_object("Flaky")
    _drive(platform, [(obj, "work")], 20.0, lambda now: {"fail": 2.0 <= now < 5.0})
    return platform


def rpo_miss() -> Oparaca:
    platform = make_platform(
        "classes:\n"
        "  - name: Cart\n"
        "    constraint: {persistence: standard}\n"
        "    keySpecs: [{name: n, type: INT, default: 0}]\n"
        "    functions: [{name: bump, image: t/bump}]\n",
        {"t/bump": (chaos._bump_n, 0.001)},
        seed=5,
        events_enabled=True,
        durability=DurabilityConfig(enabled=True, default_interval_s=0.5),
        metrics=METRICS,
    )
    calls = [(platform.new_object("Cart", object_id=f"cart-{i}"), "bump") for i in range(6)]
    victim = platform.crm.runtime("Cart").dht.owner("cart-0")
    platform.inject_chaos(
        FaultPlan(
            "rpo-miss",
            (
                StorageFaults(at=0.4, duration_s=2.5, error_rate=1.0),
                NodeCrash(at=2.75, duration_s=2.0, node=victim),
            ),
        )
    )
    _drive(platform, calls, 6.0)
    return platform


SCENARIOS: dict[str, Callable[[], Oparaca]] = {
    "federation": chaos_scenario("federation"),
    "node-crash": chaos_scenario("node-crash"),
    "latency-burn": latency_burn,
    "throughput-deficit": throughput_deficit,
    "availability-burn": availability_burn,
    "rpo-miss": rpo_miss,
}


def capture_scenario(name: str) -> dict[str, Any]:
    """Run one scenario and return both judges' view of it."""
    platform = SCENARIOS[name]()
    platform.shutdown()
    return {
        "nfr": [dataclasses.asdict(verdict) for verdict in platform.nfr_report()],
        "slo": platform.metrics.slo.report(),
        "events": [
            (event.at, event.type, event.fields)
            for event in platform.events
            if event.type in ("slo.alert", "slo.resolve")
        ],
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
