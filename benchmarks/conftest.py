"""Shared helpers for the benchmark suite.

Each benchmark runs a *simulated* experiment: pytest-benchmark measures
the wall-clock cost of the simulation run (useful for tracking harness
regressions), while the scientifically meaningful outputs — simulated
throughput, latency, DB counters — are attached as ``extra_info`` and
printed, so ``pytest benchmarks/ --benchmark-only`` regenerates the
paper's rows/series.  Every printed row is also checked against
``tests/golden/experiments.json`` (regenerate it with ``python -m
tests.golden.experiments`` only when a digit is meant to move).

Set ``REPRO_FULL=1`` for the paper-scale Fig. 3 sweep (minutes); the
default quick configuration preserves the qualitative shape in seconds
per cell.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Iterable

import pytest

from repro.bench.config import Fig3Config

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "experiments.json"


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL") == "1"


def fig3_config() -> Fig3Config:
    if full_scale():
        return Fig3Config()
    return Fig3Config.quick()


def fig3_nodes() -> tuple[int, ...]:
    return fig3_config().nodes_sweep


def golden_rows(rows: Iterable[Any]) -> list[Any]:
    """``rows`` as the golden file holds them: ``dataclasses.asdict``
    through a JSON round trip (floats survive it exactly)."""
    return json.loads(json.dumps([dataclasses.asdict(row) for row in rows]))


@pytest.fixture(scope="session")
def golden() -> dict[str, Any]:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="session")
def cfg() -> Fig3Config:
    return fig3_config()
