#!/usr/bin/env python3
"""Durability plane — the crash-restore drill, twice.

Runs the ABL-DURABILITY scenario (a ``persistence: strong`` ``Ledger``
and a ``persistence: standard`` ``Cart`` taking counter increments
until a node crash wipes one partition's memory and unflushed
write-behind buffer) with the durability plane on, **two times with the
same seed** — and exits nonzero unless both runs land on
field-identical rows.  Recovery rewrites live state; if what it
restores (or what it reports lost) varied run-to-run at one seed, no
durability claim downstream would be checkable.  CI runs this script as
the determinism gate.

The drill also asserts the plane's headline guarantees at the tested
seed:

* ``Ledger`` (``persistence: strong``) recovers with **RPO = 0** — no
  acknowledged write is lost, because every commit was synchronously
  epoch-written before it was acknowledged.
* ``Cart`` (``persistence: standard``) may lose its unflushed tail, but
  the loss is **measured** (reported RPO equals the audited gap between
  acknowledged increments and surviving state) and **bounded** by the
  snapshot cadence.
* Both classes report a measured RTO.

Run:  python examples/crash_recovery.py [seed] [--json]
"""

from __future__ import annotations

import dataclasses
import json
import sys

from repro.bench.ablations import run_ablation

#: Cart's RPO bound at the drill's default cadence: one snapshot
#: interval (0.25 s) plus the write-behind linger it rides on.
CART_RPO_BOUND_S = 0.5


def run_drill(seed: int):
    return run_ablation("ABL-DURABILITY", arms=("off", "on"), seed=seed)


def main() -> int:
    argv = [arg for arg in sys.argv[1:] if arg != "--json"]
    as_json = "--json" in sys.argv[1:]
    seed = int(argv[0]) if argv else 7

    first = run_drill(seed)
    second = run_drill(seed)

    if as_json:
        print(
            json.dumps(
                {
                    "seed": seed,
                    "rows": [dataclasses.asdict(row) for row in first],
                    "deterministic": first == second,
                },
                indent=2,
            )
        )
    else:
        print(f"=== crash drill, plane off vs on (seed {seed}) ===")
        for row in first:
            measured = (
                f"rpo={row.rpo_s:.4f}s rto={row.rto_s:.4f}s "
                f"lost_writes={row.lost_writes}"
                if row.recovered
                else "unmeasured"
            )
            print(
                f"  {row.mode:<3} {row.cls:<7} policy={row.policy:<10} "
                f"acked={row.acked_writes} survived={row.surviving_count} "
                f"lost={row.lost_acked}  {measured}"
            )

    if first != second:
        print("FAIL: crash recovery is nondeterministic at a fixed seed")
        return 1

    rows = {(row.mode, row.cls): row for row in first}
    ledger = rows[("on", "Ledger")]
    cart = rows[("on", "Cart")]
    failures: list[str] = []
    if not ledger.recovered or not cart.recovered:
        failures.append("recovery did not run for every enforced class")
    if ledger.rpo_s != 0.0 or ledger.lost_acked != 0:
        failures.append(
            f"strong class lost data: rpo={ledger.rpo_s} lost={ledger.lost_acked}"
        )
    if cart.rpo_s > CART_RPO_BOUND_S:
        failures.append(
            f"standard class RPO {cart.rpo_s:.4f}s exceeds bound "
            f"{CART_RPO_BOUND_S}s"
        )
    if cart.lost_writes != cart.lost_acked:
        failures.append(
            f"measured loss ({cart.lost_writes}) disagrees with audited loss "
            f"({cart.lost_acked})"
        )
    if ledger.rto_s <= 0.0 or cart.rto_s <= 0.0:
        failures.append("RTO was not measured")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    if not as_json:
        print(
            f"OK: both runs identical; Ledger RPO 0 "
            f"({ledger.acked_writes} acked, none lost), Cart RPO "
            f"{cart.rpo_s:.4f}s ({cart.lost_writes} write(s) lost, measured "
            f"= audited)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
