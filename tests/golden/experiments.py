"""Capture ``experiments.json``: every row the benchmark suite prints.

Each ablation's rows at its benchmark arms and every ``Fig3Config.quick()``
Fig. 3 cell, as ``dataclasses.asdict``.  ``benchmarks/`` asserts its
rows equal this file, so a change that moves one simulated digit of an
EXPERIMENTS.md table fails there.  The capture is deterministic: run it
under two ``PYTHONHASHSEED`` values and the files are identical.

Regenerate (only when a digit is meant to move)::

    PYTHONPATH=src python -m tests.golden.experiments
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

from repro.bench.ablations import ABLATIONS, run_ablation
from repro.bench.config import Fig3Config
from repro.bench.scalability import run_cell
from repro.bench.systems import SYSTEMS

GOLDEN = Path(__file__).resolve().parent / "experiments.json"


def capture() -> dict[str, object]:
    golden: dict[str, object] = {
        name: [dataclasses.asdict(row) for row in run_ablation(name)] for name in ABLATIONS
    }
    cfg = Fig3Config.quick()
    golden["FIG3"] = {
        f"{system}@{nodes}": dataclasses.asdict(run_cell(system, nodes, cfg))
        for system in SYSTEMS
        for nodes in cfg.nodes_sweep
    }
    return golden


def main(argv: list[str]) -> int:
    path = Path(argv[0]) if argv else GOLDEN
    path.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
