"""Smoke and schema test of the benchmark.

Not part of tier-1 (``testpaths`` is ``tests``); run it with
``PYTHONPATH=src python -m pytest benchmarks/perf``.  Every run is the
smoke tier (~2 s per workload), in a subprocess exactly as the
benchmark's driver starts it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def test_contract_is_within_the_limits():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/perf"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    names = [item["name"] for key in ("workloads", "end_to_end", "per_layer") for item in CONTRACT[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted(workload):
    result = result_of(run("--smoke", "--workload", workload, "--seed", "5", "--trace", "0"))
    expected = {metric["name"]: metric["unit"] for metric in CONTRACT["end_to_end"]}
    assert set(result["metrics"]) == set(expected)
    for name, reading in result["metrics"].items():
        assert reading["unit"] == expected[name]
        assert reading["value"] > 0, f"{name} must never read 0"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_emitted(workload, tmp_path):
    spans = tmp_path / "spans.json"
    result = result_of(
        run("--smoke", "--workload", workload, "--seed", "5", "--trace", "1", "--trace-out", str(spans))
    )
    expected = {metric["name"]: metric["unit"] for metric in CONTRACT["per_layer"]}
    assert set(result["metrics"]) == set(expected)
    values = {name: reading["value"] for name, reading in result["metrics"].items()}
    assert all(result["metrics"][name]["unit"] == unit for name, unit in expected.items())
    assert values["trace.coverage_ratio"] >= 0.95, "layer self times must cover the traced host time"
    assert values["sim.kernel.self_us_per_op"] > 0  # every workload runs on the kernel
    if workload == "sim-planes":
        assert values["plane.federation.marginal_dispatches_per_op"] > 0
    if workload != "http-sqlite":
        assert values["sim.kernel.dispatches_per_op"] > 0
        return
    assert values["scheduler.transport.frames_per_op"] > 0
    events = json.loads(spans.read_text())["traceEvents"]
    by_request: dict[str, dict[str, tuple[float, float]]] = {}
    ops = {}
    for event in events:
        request = event["args"]["request"]
        by_request.setdefault(request, {})[event["name"]] = (event["ts"], event["ts"] + event["dur"])
        if event["name"] == "client":
            ops[request] = event["args"]["op"]
    assert len(ops) >= 100
    for request, op in ops.items():
        chain = ("client", "front", "run") if op == "query" else ("client", "front", "submit", "run")
        spans_of = by_request[request]
        assert all(name in spans_of for name in chain), (request, op, sorted(spans_of))
        for outer, inner in zip(chain, chain[1:]):
            # One system-wide monotonic clock: nesting holds to the microsecond.
            assert spans_of[outer][0] <= spans_of[inner][0] + 1, (request, outer, inner)
            assert spans_of[inner][1] <= spans_of[outer][1] + 1, (request, outer, inner)


def test_same_seed_same_simulation():
    done = run("--check-determinism")
    assert done.returncode == 0, done.stdout[-3000:]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = run(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "benchmarks" / "perf" / "run.py",
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
