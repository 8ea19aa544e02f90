#!/usr/bin/env python3
"""QoS enforcement plane — the noisy-neighbour experiment, twice.

Runs the ABL-QOS scenario (a latency-declared ``Hot`` class sharing the
async invocation path with a flooding ``Noisy`` batch class) under the
builtin ``overload`` chaos plan, with the QoS plane on, **two times
with the same seed** — and exits nonzero unless both runs land on
byte-identical outcomes.  Shedding is a drastic intervention; if the
overload controller's victims varied run-to-run at one seed, every
chaos experiment above it would stop being reproducible.  CI runs this
script as the determinism gate.

Also prints the FIFO-baseline row next to the enforced row, so the
plane's effect (Hot's p95 held vs blown, Noisy shed vs unbounded queue)
is visible in the output.

Run:  python examples/qos_noisy_neighbor.py [seed]
"""

from __future__ import annotations

import sys

from repro.bench.ablations import run_ablation


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7

    print(f"=== noisy neighbour, plane off vs on (seed {seed}, no chaos) ===")
    for row in run_ablation("ABL-QOS", seed=seed):
        verdict = "met" if row.hot_met else "VIOLATED"
        print(
            f"  {row.mode:<5} hot p95 {row.hot_p95_ms:8.1f} ms "
            f"(target {row.hot_target_ms:.0f} ms, {verdict})  "
            f"hot ok={row.hot_completed}  noisy ok={row.noisy_completed} "
            f"rejected={row.noisy_rejected} shed={row.noisy_shed}"
        )

    print(f"\n=== determinism gate: 'overload' chaos plan, twice at seed {seed} ===")
    first = run_ablation("ABL-QOS", arms=("qos",), chaos=True, seed=seed)[0]
    second = run_ablation("ABL-QOS", arms=("qos",), chaos=True, seed=seed)[0]
    for label, row in (("run 1", first), ("run 2", second)):
        print(
            f"  {label}: hot p95 {row.hot_p95_ms:.4f} ms  "
            f"hot ok={row.hot_completed}  noisy ok={row.noisy_completed} "
            f"rejected={row.noisy_rejected} shed={row.noisy_shed}"
        )
    if first != second:
        print("FAIL: shed decisions are nondeterministic at a fixed seed")
        return 1
    print(f"OK: both runs identical ({first.noisy_shed} noisy invocations shed)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
