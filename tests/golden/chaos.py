"""Capture ``chaos.json``: what the chaos plane narrates for ten plans.

Each plan runs against a fresh seeded platform under a steady
synchronous workload until ``plan.end_s + 2``; the capture pins every
request's ``(now, ok, error_type)``, the rendered event log,
``injector.stats()`` and the ``nfr_report()`` rows.  The plans:

* the seven named plans (``ocli chaos --plan``) on the chaos-demo
  package — 3 nodes, seed 3, tracing and events on;
* ``every-kind``: one plan holding every baseline fault kind;
* ``scheduler``: WorkerCrash with a restart, a permanent WorkerCrash,
  HeartbeatLoss and SlowWorker on the sim scheduler plane, with async
  work submitted beside the sync requests;
* ``federation``: a ZonePartition plus two WanDegradations on a 6-node,
  3-zone federation.

``tests/test_chaos.py`` asserts each plan's capture equals this file, so
a change that moves one chaos event or verdict fails there.  The
capture is deterministic: run it under two ``PYTHONHASHSEED`` values and
the files are identical.

Regenerate (only when the narration is meant to change)::

    PYTHONPATH=src python -m tests.golden.chaos [out]
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Callable

from repro.chaos import (
    PLAN_NAMES,
    ColdStartStorm,
    FaultPlan,
    HeartbeatLoss,
    NetworkDelay,
    NodeCrash,
    Partition,
    SlowPods,
    SlowWorker,
    StorageFaults,
    WanDegradation,
    WorkerCrash,
    ZonePartition,
    named_plan,
)
from repro.federation import FederationConfig, Zone
from repro.platform.oparaca import Oparaca
from repro.scheduler import SchedulerConfig

from tests.helpers import make_platform

GOLDEN = Path(__file__).resolve().parent / "chaos.json"
DEMO_PACKAGE = Path(__file__).resolve().parents[2] / "examples/packages/chaos_demo.yaml"
NODES = ("vm-0", "vm-1", "vm-2")
INTERVAL_S = 0.1


def _add(ctx):
    ctx.state["balance"] = ctx.state.get("balance", 0) + int(ctx.payload.get("amount", 1))
    return {"balance": ctx.state["balance"]}


def _bump_hits(ctx):
    ctx.state["hits"] = ctx.state.get("hits", 0) + 1
    return {"hits": ctx.state["hits"]}


def _bump_n(ctx):
    ctx.state["n"] = int(ctx.state.get("n") or 0) + 1
    return {"n": ctx.state["n"]}


DEMO_HANDLERS = {"ledger/add": (_add, 0.002), "scratch/bump": (_bump_hits, 0.002)}


def demo_platform(**config: Any) -> tuple[Oparaca, list[tuple[str, str]]]:
    platform = make_platform(
        DEMO_PACKAGE.read_text(),
        DEMO_HANDLERS,
        seed=3,
        tracing_enabled=True,
        events_enabled=True,
        **config,
    )
    calls = [(platform.new_object("Ledger", object_id=f"acct-{i}"), "add") for i in range(3)]
    calls += [(platform.new_object("Scratch", object_id=f"pad-{i}"), "bump") for i in range(3)]
    return platform, calls


TASK_PACKAGE = """
name: sched-app
classes:
  - name: Task
    qos: {availability: 0.99}
    keySpecs: [{name: n, type: INT, default: 0}]
    functions: [{name: bump, image: s/bump}]
"""


def scheduler_platform() -> tuple[Oparaca, list[tuple[str, str]]]:
    platform = make_platform(
        TASK_PACKAGE,
        {"s/bump": (_bump_n, 0.002)},
        seed=9,
        tracing_enabled=True,
        events_enabled=True,
        scheduler=SchedulerConfig(
            enabled=True,
            pool_size=3,
            heartbeat_interval_s=0.1,
            dead_after_misses=4,
            dispatch_overhead_s=0.002,
        ),
    )
    return platform, [(platform.new_object("Task", object_id=f"t-{i}"), "bump") for i in range(3)]


FED_PACKAGE = """
name: fed-app
classes:
  - name: Sensor
    qos: {latency: 20, availability: 0.99}
    constraint: {jurisdictions: [edge-a, region-a]}
    keySpecs: [{name: n, type: INT, default: 0}]
    functions: [{name: bump, image: f/bump}]
  - name: Archive
    qos: {availability: 0.99}
    keySpecs: [{name: n, type: INT, default: 0}]
    functions: [{name: bump, image: f/bump}]
"""


def federation_platform(**config: Any) -> tuple[Oparaca, list[tuple[str, str]]]:
    platform = make_platform(
        FED_PACKAGE,
        {"f/bump": (_bump_n, 0.002)},
        nodes=6,
        seed=7,
        regions=("edge-a", "region-a", "core"),
        tracing_enabled=True,
        events_enabled=True,
        federation=FederationConfig(
            enabled=True,
            zones=(
                Zone("edge-a", tier="edge", parent="region-a"),
                Zone("region-a", tier="regional", parent="core"),
                Zone("core", tier="core"),
            ),
            zone_rtt_s=(
                ("edge-a", "region-a", 0.02),
                ("edge-a", "core", 0.08),
                ("region-a", "core", 0.03),
            ),
        ),
        **config,
    )
    calls = [(platform.new_object("Sensor", object_id=f"s-{i}"), "bump") for i in range(3)]
    calls += [(platform.new_object("Archive", object_id=f"a-{i}"), "bump") for i in range(3)]
    return platform, calls


EVERY_KIND = FaultPlan(
    "every-kind",
    (
        NodeCrash(at=1.0, duration_s=3.0, node="vm-1"),
        NetworkDelay(at=1.5, duration_s=4.0, extra_s=0.02, src="vm-0", dst="vm-2"),
        Partition(at=2.0, duration_s=3.0, nodes=("vm-2",)),
        SlowPods(at=2.5, duration_s=3.0, factor=4.0, cls="Ledger"),
        StorageFaults(at=3.0, duration_s=2.0, error_rate=0.4),
        ColdStartStorm(at=4.0, classes=("Scratch",)),
    ),
)

SCHEDULER = FaultPlan(
    "scheduler",
    (
        WorkerCrash(at=0.5, duration_s=1.0, worker="worker-0"),
        WorkerCrash(at=1.0, worker="worker-1"),
        HeartbeatLoss(at=0.8, duration_s=0.9, worker="worker-2"),
        SlowWorker(at=2.0, duration_s=1.0, worker="worker-2", factor=4.0),
    ),
)

FEDERATION = FaultPlan(
    "federation",
    (
        ZonePartition(at=1.0, duration_s=2.0, zone="edge-a"),
        WanDegradation(at=0.5, duration_s=3.0, src_zone="region-a", dst_zone="core", extra_s=0.05),
        WanDegradation(at=2.0, duration_s=2.0, src_zone="core", extra_s=0.01),
    ),
)

#: Plan name -> (platform builder, plan, async submissions per tick).
CASES: dict[str, tuple[Callable[[], tuple[Oparaca, list]], FaultPlan, int]] = {
    **{name: (demo_platform, named_plan(name, NODES), 0) for name in PLAN_NAMES},
    "every-kind": (demo_platform, EVERY_KIND, 0),
    "scheduler": (scheduler_platform, SCHEDULER, 1),
    "federation": (federation_platform, FEDERATION, 0),
}


def capture_plan(name: str) -> dict[str, Any]:
    """Drive one plan to ``end_s + 2`` and return what it narrated."""
    build, plan, async_per_tick = CASES[name]
    platform, calls = build()
    injector = platform.inject_chaos(plan)
    requests: list[tuple[float, bool, str | None]] = []
    completions = []
    tick = 0
    while platform.now < plan.end_s + 2.0:
        obj, fn = calls[tick % len(calls)]
        result = platform.invoke(obj, fn, {"amount": 1}, raise_on_error=False)
        requests.append((platform.now, result.ok, result.error_type))
        for _ in range(async_per_tick):
            completions.append(platform.invoke_async(obj, fn, {"amount": 1}))
        platform.advance(INTERVAL_S)
        tick += 1
    platform.shutdown()
    return {
        "requests": requests,
        "async": [
            (event.value.ok, event.value.error_type) if event.triggered else None
            for event in completions
        ],
        "events": platform.events.render().splitlines(),
        "stats": injector.stats(),
        "nfr": [dataclasses.asdict(verdict) for verdict in platform.nfr_report()],
    }


def capture() -> dict[str, Any]:
    # Round-trip through JSON so tuples compare as the lists on disk.
    return json.loads(json.dumps({name: capture_plan(name) for name in CASES}))


def main(argv: list[str]) -> int:
    path = Path(argv[0]) if argv else GOLDEN
    path.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
