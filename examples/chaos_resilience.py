#!/usr/bin/env python3
"""Chaos & resilience — availability NFRs under injected faults.

Two classes declare the same three-nines availability target but choose
different durability trade-offs:

* ``Ledger`` is persistent, so the NFR selects the high-availability
  template (replicated DHT entries, warm spares);
* ``Scratch`` opts out of persistence, so it lands on the in-memory
  ephemeral template (single in-memory copy, no database tier).

A fault plan then crashes one worker VM (it restarts later) and
partitions another away, while a steady workload keeps invoking both
classes.  The resilience plane — bounded retries, read/write failover to
surviving replicas, circuit breakers, stale-read fallback — keeps the
replicated class inside its availability target; the ephemeral class
demonstrably is not, which the ``availability_under_fault`` rows of the
NFR report make visible.

Run:  python examples/chaos_resilience.py [seed]
"""

from __future__ import annotations

import sys

from repro import Oparaca, PlatformConfig
from repro.chaos import FaultPlan, NodeCrash, Partition
from repro.monitoring.nfr_report import format_nfr_report

PACKAGE = """
name: chaos-demo
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

OBJECTS_PER_CLASS = 6
ROUNDS = 80


def build_platform(seed: int) -> Oparaca:
    oparaca = Oparaca(
        PlatformConfig(nodes=3, seed=seed, tracing_enabled=True, events_enabled=True)
    )

    @oparaca.function("ledger/add", service_time_s=0.002)
    def add(ctx):
        ctx.state["balance"] = ctx.state.get("balance", 0) + int(ctx.payload["amount"])
        return {"balance": ctx.state["balance"]}

    @oparaca.function("scratch/bump", service_time_s=0.002)
    def bump(ctx):
        ctx.state["hits"] = ctx.state.get("hits", 0) + 1
        return {"hits": ctx.state["hits"]}

    oparaca.deploy(PACKAGE)
    return oparaca


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    oparaca = build_platform(seed)
    for runtime in oparaca.describe():
        print(
            f"{runtime['class']:>8}: template={runtime['template']!r} "
            f"replication={runtime['replication']} persistent={runtime['persistent']}"
        )

    # Explicit object ids keep runs byte-for-byte reproducible.
    ledgers = [
        oparaca.new_object("Ledger", object_id=f"acct-{i}")
        for i in range(OBJECTS_PER_CLASS)
    ]
    scratches = [
        oparaca.new_object("Scratch", object_id=f"pad-{i}")
        for i in range(OBJECTS_PER_CLASS)
    ]

    # The incident: vm-1 dies at t=1s and is replaced 4s later; vm-2 is
    # partitioned away from t=2s to t=5s.  Both faults overlap.
    plan = FaultPlan(
        "crash-and-partition",
        (
            NodeCrash(at=1.0, duration_s=4.0, node="vm-1"),
            Partition(at=2.0, duration_s=3.0, nodes=("vm-2",)),
        ),
    )
    injector = oparaca.inject_chaos(plan)

    # Closed-loop workload across both classes while the plan plays out.
    committed = {obj: 0 for obj in ledgers}
    ok = {"Ledger": 0, "Scratch": 0}
    failed = {"Ledger": 0, "Scratch": 0}
    for round_no in range(ROUNDS):
        obj = ledgers[round_no % OBJECTS_PER_CLASS]
        result = oparaca.invoke(obj, "add", {"amount": 1}, raise_on_error=False)
        if result.ok:
            ok["Ledger"] += 1
            committed[obj] += 1
        else:
            failed["Ledger"] += 1
        pad = scratches[round_no % OBJECTS_PER_CLASS]
        result = oparaca.invoke(pad, "bump", raise_on_error=False)
        if result.ok:
            ok["Scratch"] += 1
        else:
            failed["Scratch"] += 1
        oparaca.advance(0.075)

    oparaca.advance(max(0.0, plan.end_s - oparaca.now) + 0.5)
    print(
        f"\nworkload: Ledger {ok['Ledger']} ok / {failed['Ledger']} failed; "
        f"Scratch {ok['Scratch']} ok / {failed['Scratch']} failed"
    )

    # No committed Ledger state was lost: every acknowledged `add`
    # survived the crash, the partition, and the node replacement.
    lost = 0
    for obj, expected in committed.items():
        balance = oparaca.get_object(obj)["state"]["balance"]
        if balance < expected:
            lost += 1
            print(f"  LOST STATE: {obj} balance={balance} < committed={expected}")
    print(f"committed-state check: {'OK' if lost == 0 else f'{lost} objects lost data'}")

    print("\nchaos summary:")
    summary = injector.stats()
    print(f"  injected={summary['injected']} recovered={summary['recovered']}")
    print(f"  fault_time_s={summary['fault_time_s']:.2f}")
    availability_under_fault = {
        row["class"]: row["availability"] for row in summary["availability_under_fault"]
    }
    for cls, availability in sorted(availability_under_fault.items()):
        shown = "n/a" if availability is None else f"{availability:.4f}"
        print(f"  availability under fault [{cls}]: {shown}")

    snap = oparaca.snapshot()
    print(
        f"\nresilience: retries={snap['engine.fault_retries']:.0f} "
        f"timeouts={snap['engine.timeouts']:.0f} "
        f"stale_reads={snap['engine.stale_reads']:.0f} "
        f"open_breakers={snap['engine.open_breakers']:.0f}"
    )
    retry_events = len(oparaca.platform_events("resilience.retry"))
    chaos_events = len(oparaca.platform_events("chaos.inject"))
    print(f"events: {chaos_events} chaos injections, {retry_events} retries recorded")

    print("\nNFR compliance (note the availability_under_fault rows):")
    print(format_nfr_report(oparaca.nfr_report()))

    oparaca.shutdown()

    ledger_avail = availability_under_fault.get("Ledger")
    scratch_avail = availability_under_fault.get("Scratch")
    happy = (
        lost == 0
        and ledger_avail is not None
        and ledger_avail >= 0.999
        and (scratch_avail is None or scratch_avail < 0.999)
    )
    print(f"\nchaos demo {'PASSED' if happy else 'FAILED'}")
    return 0 if happy else 1


if __name__ == "__main__":
    raise SystemExit(main())
