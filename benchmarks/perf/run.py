"""The repo's benchmark: four workloads, end to end and layer by layer.

    python benchmarks/perf/run.py --seed 0            # every workload, end-to-end metrics
    python benchmarks/perf/run.py --seed 0 --trace    # the traced set: per-layer metrics
    python benchmarks/perf/run.py --workload sim-read --seed 3 --seconds 10 --trace 0
    python benchmarks/perf/run.py --smoke             # ~2 s per workload
    python benchmarks/perf/run.py --check-determinism
    python benchmarks/perf/run.py --selfcheck

With ``--workload`` the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` (the form
BENCHMARK.json's driver reads).  Every workload runs in fresh child
processes with ``PYTHONHASHSEED=0``.  Exit status is non-zero on a wrong
output, a failed self-check, or a missing source tree.  README.md in
this directory explains every number.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: the benchmark runs the repository's source tree")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import estimators  # noqa: E402
import httprun  # noqa: E402
import layers  # noqa: E402
import spec  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in CONTRACT["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in CONTRACT["per_layer"]}
RUN_PY = Path(__file__).resolve()


# -- child processes ---------------------------------------------------------


def start_sim_child(workload: spec.Workload, seed: int, seconds: float, smoke: bool,
                    mode: str, cpu: int | None = None) -> subprocess.Popen:
    """Start one sim child (``timed`` or ``traced``) in a fresh interpreter."""
    command = [
        sys.executable, str(RUN_PY), "--role", "sim-child", "--mode", mode,
        "--workload", workload.name, "--seed", str(seed), "--seconds", str(seconds),
        "--started", repr(time.time()),
    ]
    if smoke:
        command.append("--smoke")
    if cpu is not None:
        command += ["--cpu", str(cpu)]
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=httprun.child_env())


def finish_sim_child(child: subprocess.Popen) -> dict[str, Any]:
    """Wait for a sim child; the JSON it printed last."""
    output, _ = child.communicate()
    if child.returncode != 0:
        raise RuntimeError(f"sim child exited {child.returncode}")
    return json.loads(output.splitlines()[-1])


def sim_child(workload: spec.Workload, seed: int, seconds: float, smoke: bool, mode: str) -> dict[str, Any]:
    return finish_sim_child(start_sim_child(workload, seed, seconds, smoke, mode))


def sim_rounds(workload: spec.Workload, seed: int, seconds: float, smoke: bool, rounds: int) -> list[dict[str, Any]]:
    """``rounds`` rounds of timed sim children, in each round one child
    per CPU (two at most) side by side, each pinned to its own.  The
    children are single-threaded and independent, so they do not slow
    each other, and a quiet spell on either CPU gets sampled."""
    cpus = sorted(os.sched_getaffinity(0))[:2]
    results: list[dict[str, Any]] = []
    for _ in range(rounds):
        children = [start_sim_child(workload, seed, seconds, smoke, "timed", cpu) for cpu in cpus]
        try:
            results += [finish_sim_child(child) for child in children]
        finally:
            for child in children:
                if child.poll() is None:
                    child.kill()
                    child.wait()
    return results


def run_role(args: argparse.Namespace) -> None:
    """Entry of a child process this script started."""
    sizes = spec.SMOKE if args.smoke else spec.STANDARD
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    if args.role == "http-server":
        httprun.serve(args.db, bool(args.trace), args.trace_out)
        return
    import simrun

    workload = spec.WORKLOADS[args.workload]
    if args.mode == "traced":
        result = simrun.traced_child(workload, args.seed, sizes, args.started)
    else:
        result = simrun.timed_child(workload, args.seed, args.seconds, sizes, args.started)
    print(json.dumps(result))


# -- one workload ----------------------------------------------------------------


#: Simulated results a sim workload must reproduce exactly for a seed.
SIM_EXACT = ("sim_mean_ms", "sim_p50_ms", "sim_p99_ms", "sim_rps", "sim_samples", "plan")


def run_timed(workload: spec.Workload, seed: int, seconds: float, smoke: bool) -> dict[str, Any]:
    """End-to-end metrics of one workload, from fresh children that each
    set up, measure their share of ``seconds`` and check their outputs."""
    sizes = spec.SMOKE if smoke else spec.STANDARD
    share = seconds / sizes.processes
    if workload.kind == "sim":
        children = sim_rounds(workload, seed, share, smoke, sizes.processes)
    else:
        children = [httprun.timed(workload, seed, share, sizes) for _ in range(sizes.processes)]
    first = children[0]
    problems = [line for child in children for line in child["problems"]]
    if workload.kind == "sim":
        problems += [
            f"{key} differs between two runs of seed {seed}: {first[key]!r} != {child[key]!r}"
            for child in children[1:] for key in SIM_EXACT if child[key] != first[key]
        ]

    def median(key: str) -> float:
        return statistics.median(child[key] for child in children)

    rates = [rate for child in children for rate in child["rates"]]
    return {
        "metrics": {
            "invocations_per_s": max(rates),
            "sim_throughput_rps": median("sim_rps"),
            "sim_latency_mean_ms": median("sim_mean_ms"),
            "peak_rss_mb": median("peak_rss_mb"),
            "setup_s": median("setup_s"),
        },
        "children": children,
        "rates": rates,
        "ops": sum(child["ops"] for child in children),
        "host_s": sum(child["host_s"] for child in children),
        "attempted": sum(child["attempted"] for child in children),
        "failed": sum(child["failed"] for child in children),
        "errors": [line for child in children for line in child["errors"]],
        "problems": problems,
    }


def run_traced(workload: spec.Workload, seed: int, smoke: bool, trace_out: Path) -> dict[str, Any]:
    """Per-layer metrics of one workload.  A metric whose layer is not
    on this workload's path reads 0."""
    sizes = spec.SMOKE if smoke else spec.STANDARD
    if workload.kind == "sim":
        result = sim_child(workload, seed, 0.0, smoke, "traced")
    else:
        result = httprun.traced(workload, seed, sizes, trace_out)
    unknown = sorted(set(result["metrics"]) - set(PER_LAYER))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    result["metrics"] = {name: result["metrics"].get(name, 0.0) for name in PER_LAYER}
    return result


# -- printing ----------------------------------------------------------------------


def report(result: dict[str, Any], units: dict[str, Any]) -> dict[str, Any]:
    """The driver's result object for one run."""
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]["unit"]}
            for name, value in result["metrics"].items()
        },
    }


def print_timed(name: str, result: dict[str, Any]) -> None:
    children = result["children"]
    print(
        f"\n== {name}: end to end ({result['ops']} ops in {result['host_s']:.1f} s timed, "
        f"{len(children)} processes) =="
    )
    for metric, value in result["metrics"].items():
        print(f"  {metric:<20} {value:>14.4f} {END_TO_END[metric]['unit']}")
    rates = estimators.describe(result["rates"])
    print(
        "  slice rates (ops/s): best {best:.0f}, best decile {best_decile:.0f}, q3 {q3:.0f}, "
        "median {median:.0f}, q1 {q1:.0f}, worst decile {worst_decile:.0f} over {slices:.0f} slices".format(**rates)
    )
    first = children[0]
    if "sim_p50_ms" in first:
        print(
            f"  simulated latency: p50 {first['sim_p50_ms']:.4f} ms, p99 {first['sim_p99_ms']:.4f} ms "
            f"over {first['sim_samples']} requests of the fixed window (quantised: not contract metrics)"
        )
    else:
        p50 = estimators.quantile([m for child in children for m in child["slice_p50_ms"]], 0.1)
        p99 = statistics.median(child["wall_p99_ms"] for child in children)
        print(f"  wall latency: p50 {p50:.4f} ms (lower decile of slice medians), p99 {p99:.4f} ms")
    print("  set-ups (s): " + ", ".join(f"{child['setup_s']:.3f}" for child in children))
    drift = max(child["calibration_drift"] for child in children)
    noisy = "  NOISY: the host changed speed during this run" if drift > 0.10 else ""
    print(f"  host calibration drift {drift:.3f}{noisy}")
    print_problems(result)


def print_traced(name: str, result: dict[str, Any]) -> None:
    metrics = result["metrics"]
    print(
        f"\n== {name}: per layer ({result['ops']} profiled ops; untraced "
        f"{result['plain_us_per_op']:.1f} us/op, traced {result['traced_us_per_op']:.1f} us/op, "
        f"layer self times cover {metrics['trace.coverage_ratio']:.1%} of traced host time) =="
    )
    rows = sorted(
        ((metrics[f"{layer}.self_us_per_op"], metrics[f"{layer}.calls_per_op"], layer)
         for layer in layers.LAYERS),
        reverse=True,
    )
    total = sum(row[0] for row in rows) or 1.0
    print(f"  {'layer':<24}{'self us/op':>12}{'share':>8}{'calls/op':>10}")
    for self_us, calls, layer in rows:
        if calls:
            print(f"  {layer:<24}{self_us:>12.2f}{self_us / total:>8.1%}{calls:>10.2f}")
    for metric, value in metrics.items():
        if not metric.endswith((".self_us_per_op", ".calls_per_op")) and value:
            print(f"  {metric:<44} {value:>12.4f} {PER_LAYER[metric]['unit']}")
    print_problems(result)


def print_problems(result: dict[str, Any]) -> None:
    for line in result.get("errors", []):
        print(f"  FAILED OP: {line}")
    for line in result["problems"][:20]:
        print(f"  WRONG OUTPUT: {line}")


# -- checks ---------------------------------------------------------------------------


def check_determinism(seed: int) -> int:
    """Same seed twice: every simulated metric, the failure count and
    every exact count agree to the last digit.  Another seed: another plan."""
    exact_timed = SIM_EXACT + ("failed",)
    exact_traced = (
        "sim.kernel.dispatches_per_op", "stdlib.copy.deepcopy_per_op", "stdlib.hashlib.md5_per_op",
        "storage.dht.hit_ratio", "storage.kv.reads_per_op", "storage.kv.write_ops_per_op",
        "storage.write_behind.docs_per_batch", "invoker.engine.cas_conflict_ratio",
        "trace.py_calls_per_op", "sim.latency_p50_ms", "sim.latency_p99_ms",
    )
    bad = 0
    for workload in spec.WORKLOADS.values():
        if workload.kind != "sim":
            continue
        first, second = (sim_child(workload, seed, 0.5, True, "timed") for _ in range(2))
        other = sim_child(workload, seed + 1, 0.5, True, "timed")
        traces = [sim_child(workload, seed, 0.0, True, "traced")["metrics"] for _ in range(2)]
        traced_keys = exact_traced + tuple(k for k in traces[0] if k.endswith((".calls_per_op", "dispatches_per_op")))
        diffs = [f"{k}: {first[k]!r} != {second[k]!r}" for k in exact_timed if first[k] != second[k]]
        diffs += [f"{k}: {traces[0][k]!r} != {traces[1][k]!r}" for k in traced_keys if traces[0][k] != traces[1][k]]
        if other["plan"] == first["plan"]:
            diffs.append(f"seed {seed + 1} generated the same plan as seed {seed}")
        print(f"{workload.name}: " + ("deterministic" if not diffs else "NOT deterministic"))
        for diff in diffs:
            print(f"  {diff}")
        bad += bool(diffs)
    return 1 if bad else 0


def selfcheck(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload twice, back to back, on the same code: do the two
    readings agree within the bounds BENCHMARK.json fixes?  (The driver
    compares medians of ten runs; one pair is a harder test.)"""
    outside = 0
    print(f"| {'workload':<12} | {'metric':<20} | {'first':>12} | {'second':>12} | {'diff':>7} | {'bound':>6} |")
    print("|---|---|---|---|---|---|")
    for name, workload in spec.WORKLOADS.items():
        first, second = (run_timed(workload, seed, seconds, smoke)["metrics"] for _ in range(2))
        for metric, info in END_TO_END.items():
            diff = abs(second[metric] - first[metric]) / first[metric]
            flag = "" if diff <= info["bound"] else "  OUTSIDE"
            outside += bool(flag)
            print(
                f"| {name:<12} | {metric:<20} | {first[metric]:>12.4f} | {second[metric]:>12.4f} "
                f"| {diff:>7.2%} | {info['bound']:>6.2%} |{flag}"
            )
    return 1 if outside else 0


# -- entry -----------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="timed phase per workload")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0)
    parser.add_argument("--trace-out", default=None, help="Chrome-trace span file (http-sqlite)")
    parser.add_argument("--smoke", action="store_true", help="~2 s per workload")
    parser.add_argument("--check-determinism", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    # Set by this script when it starts its own children.
    parser.add_argument("--role", choices=("sim-child", "http-server"), help=argparse.SUPPRESS)
    parser.add_argument("--mode", choices=("timed", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--db", help=argparse.SUPPRESS)
    parser.add_argument("--cpu", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(CONTRACT["run_seconds"])
    if args.role:
        run_role(args)
        return 0
    if args.check_determinism:
        return check_determinism(args.seed)
    if args.selfcheck:
        return selfcheck(args.seed, args.seconds, args.smoke)

    trace_out = Path(args.trace_out) if args.trace_out else httprun.WORK_ROOT / "spans.json"
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    wrong = False
    for name in names:
        workload = spec.WORKLOADS[name]
        if args.trace:
            result = run_traced(workload, args.seed, args.smoke, trace_out)
            print_traced(name, result)
            if workload.kind == "http":
                print(f"  spans written to {trace_out}")
        else:
            result = run_timed(workload, args.seed, args.seconds, args.smoke)
            print_timed(name, result)
        wrong = wrong or bool(result["problems"])
        if args.workload:
            print(json.dumps(report(result, PER_LAYER if args.trace else END_TO_END)))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
