"""Byte-identity dump of the conformance scenarios.

    PYTHONPATH=src python -m tests.conformance.dump <dir>

Writes one ``<scenario>.txt`` per scenario — the rendered event log
followed by the ledger audit — for the eight named scenarios, the QoS
flood, random seeds 1-3 and heavy seeds 101/113.  Two dumps of one
commit must ``diff -r`` empty (replay identity, checked in CI); a dump
of the parent commit against a dump of a change shows whether the
change moved any simulated event.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

from tests.conformance.dsl import qos_flood_scenario, random_scenario, run_scenario
from tests.conformance.test_conformance import NAMED_SCENARIOS


def scenarios():
    yield from NAMED_SCENARIOS
    yield qos_flood_scenario()
    for seed in (1, 2, 3):
        yield random_scenario(seed)
    for seed in (101, 113):
        yield replace(random_scenario(seed, heavy=True), name=f"heavy-{seed}")


def dump(directory: Path) -> int:
    directory.mkdir(parents=True, exist_ok=True)
    count = 0
    for scenario in scenarios():
        result = run_scenario(scenario)
        (directory / f"{scenario.name}.txt").write_text(
            result.events_text + "\n" + json.dumps(result.audit, sort_keys=True) + "\n"
        )
        count += 1
    return count


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python -m tests.conformance.dump <dir>")
    print(f"wrote {dump(Path(sys.argv[1]))} scenario logs to {sys.argv[1]}")
