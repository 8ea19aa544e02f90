"""The three sim workloads: one single-threaded process on the sim kernel.

Sixteen closed-loop sim clients drive ``Gateway.handle`` (and
``Oparaca.invoke_async`` for the async share) from the generated plan.
Only public surface is touched, so internal refactors cannot break the
benchmark.
"""

from __future__ import annotations

import cProfile
import math
import time
from typing import Any, Generator

from repro.crm.template import ClassRuntimeTemplate, RuntimeConfig, TemplateCatalog
from repro.durability.plane import DurabilityConfig
from repro.federation import FederationConfig, Zone
from repro.monitoring.plane import MetricsConfig
from repro.platform.gateway import HttpRequest
from repro.platform.oparaca import Oparaca, PlatformConfig
from repro.qos.plane import QosConfig
from repro.scheduler.plane import SchedulerConfig
from repro.sim.kernel import all_of
from repro.sim.workload import LoadStats

import estimators
import layers
import spec
from spec import ADD, ADD_ASYNC, CLS, GET, PEEK, SIM_CLIENTS, Sizes, Workload

_NODES = 3
_ZONES = (
    Zone("edge", tier="edge", parent="regional"),
    Zone("regional", tier="regional", parent="core"),
    Zone("core", tier="core"),
)
_ZONE_RTT = (("edge", "regional", 0.004), ("regional", "core", 0.010), ("edge", "core", 0.020))


def platform_config(workload: Workload, objects: int, planes: tuple[str, ...]) -> PlatformConfig:
    options: dict[str, Any] = {}
    if workload.dht_share is not None:
        cap = max(1, int(objects / _NODES * workload.dht_share))
        options["catalog"] = TemplateCatalog(
            [ClassRuntimeTemplate("perf-capped", config=RuntimeConfig(dht_max_entries=cap))]
        )
    if "qos" in planes:
        options["qos"] = QosConfig(enabled=True)
    if "durability" in planes:
        # Cut period = the timed slice, bounded retention: every slice
        # pays one cut and memory does not grow with the run's length.
        options["durability"] = DurabilityConfig(
            enabled=True, default_interval_s=spec.SLICE_SIM_S, default_retention_s=2.0
        )
    if "metrics" in planes:
        options["metrics"] = MetricsConfig(enabled=True, scrape_interval_s=spec.SLICE_SIM_S)
    if "tracing" in planes:
        options["tracing_enabled"] = True
        options["events_enabled"] = True
    if "scheduler" in planes:
        options["scheduler"] = SchedulerConfig(enabled=True, transport="sim")
    if "federation" in planes:
        options["regions"] = tuple(zone.name for zone in _ZONES)
        options["federation"] = FederationConfig(
            enabled=True, zones=_ZONES, zone_rtt_s=_ZONE_RTT, default_origin_zone="regional"
        )
    return PlatformConfig(nodes=_NODES, seed=spec.PLATFORM_SEED, **options)


class SimRun:
    """A built platform plus the closed-loop clients driving it."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        objects: int,
        planes: tuple[str, ...] | None = None,
    ) -> None:
        self.workload = workload
        planes = workload.planes if planes is None else planes
        self.plan = spec.make_plan(workload, seed, objects)
        self.platform = Oparaca(platform_config(workload, objects, planes))
        spec.register_functions(self.platform)
        self.platform.deploy(spec.package_yaml(workload))
        self.ids = [
            self.platform.new_object(
                CLS, {"total": 0, "note": spec.NOTE}, object_id=f"o-{index}"
            )
            for index in range(objects)
        ]
        self.platform.flush()
        self.adds = [0] * objects  # acknowledged adds per object
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.stats = LoadStats()
        self.window_end = -math.inf  # nothing is recorded until a window opens
        self._limit = 0.0
        self._next_index = 0
        self._clients: list[Any] = []

    # -- clients ---------------------------------------------------------

    def start_clients(self, ops: float = math.inf) -> None:
        """Spawn the closed-loop clients; together they issue ``ops``
        requests (or run until :meth:`drain_clients`)."""
        base = self._next_index
        self._limit = base + ops
        env = self.platform.env
        self._clients = [env.process(self._client(base + c)) for c in range(SIM_CLIENTS)]

    def drain_clients(self) -> None:
        """Let every client finish its request in flight and stop."""
        self._limit = 0
        if self._clients:
            self.platform.env.run(until=all_of(self.platform.env, self._clients))
        self._clients = []

    def run_ops(self, ops: int) -> float:
        """Run exactly ``ops`` requests to completion; host seconds."""
        started = time.perf_counter()
        self.start_clients(ops)
        self.platform.env.run(until=all_of(self.platform.env, self._clients))
        self._clients = []
        return time.perf_counter() - started

    def _client(self, index: int) -> Generator[Any, Any, None]:
        platform = self.platform
        env = platform.env
        handle = platform.gateway.handle
        ops, targets, ids = self.plan.ops, self.plan.targets, self.ids
        size = len(ops)
        while index < self._limit:
            slot = index % size
            op = ops[slot]
            target = targets[slot]
            oid = ids[target]
            start = env.now
            if op == PEEK:
                reply = yield handle(HttpRequest("POST", f"/api/objects/{oid}/invokes/peek"))
                ok = reply.status == 200 and "total" in reply.body
            elif op == GET:
                reply = yield handle(HttpRequest("GET", f"/api/objects/{oid}"))
                ok = reply.status == 200 and reply.body.get("id") == oid
            elif op == ADD:
                reply = yield handle(
                    HttpRequest("POST", f"/api/objects/{oid}/invokes/add", {"n": 1})
                )
                ok = reply.status == 200 and reply.body.get("total", 0) >= 1
            else:
                assert op == ADD_ASYNC
                reply = yield platform.invoke_async(oid, "add", {"n": 1})
                ok = reply.ok and reply.output.get("total", 0) >= 1
            end = env.now
            self.attempted += 1
            if ok:
                if op in (ADD, ADD_ASYNC):
                    self.adds[target] += 1
            else:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{spec.OP_NAMES[op]} {oid}: {reply!r}")
            if end <= self.window_end:
                self.stats.record(start, end, ok)
            index += SIM_CLIENTS
            if index > self._next_index:
                self._next_index = index

    # -- phases ------------------------------------------------------------

    def warm_up(self, sim_seconds: float) -> None:
        self.start_clients()
        self.platform.advance(sim_seconds)

    def measure(self, seconds: float, window_sim_s: float) -> dict[str, Any]:
        """The timed phase: steps of half a slice of simulated time until
        ``seconds`` of host time have passed *and* the fixed simulated
        window is complete.  Host-time rates are taken over every pair
        of consecutive steps (slices that overlap by half, so a quiet
        spell of the host is caught wherever it starts); the simulated
        numbers come from the window, so they are exact for a seed
        however fast the host is."""
        platform, step_s = self.platform, spec.SLICE_SIM_S / 2
        self.stats = LoadStats(warmup_s=platform.now)
        self.window_end = platform.now + window_sim_s
        window_steps = round(window_sim_s / step_s)
        steps: list[tuple[int, float]] = []
        attempted_before = self.attempted
        started = time.perf_counter()
        while True:
            done_before = self.attempted
            step_started = time.perf_counter()
            platform.advance(step_s)
            now = time.perf_counter()
            steps.append((self.attempted - done_before, now - step_started))
            if now - started >= seconds and len(steps) >= window_steps:
                break
        return {
            "rates": estimators.pair_rates(steps),
            "host_s": time.perf_counter() - started,
            "ops": self.attempted - attempted_before,
            "sim_mean_ms": self.stats.mean_latency * 1e3,
            "sim_p50_ms": self.stats.latency_percentile(50) * 1e3,
            "sim_p99_ms": self.stats.latency_percentile(99) * 1e3,
            "sim_rps": self.stats.throughput(self.window_end),
            "sim_samples": len(self.stats.latencies),
        }

    # -- output check ------------------------------------------------------

    def verify(self) -> list[str]:
        """After a flush every object's ``total`` in the store equals the
        adds acknowledged for it (so their sum equals the successful
        adds), and the store's document equals the DHT's resident copy."""
        platform = self.platform
        self.drain_clients()
        platform.flush()
        dht = platform.crm.runtimes[CLS].dht
        problems: list[str] = []
        for index, oid in enumerate(self.ids):
            stored = platform.store.get_sync(dht.collection, oid)
            if stored is None:
                problems.append(f"{oid}: missing from the store")
                continue
            if stored["state"]["total"] != self.adds[index]:
                problems.append(
                    f"{oid}: store total {stored['state']['total']} != "
                    f"{self.adds[index]} acknowledged adds"
                )
            resident = dht.peek(oid)
            if resident is not None and resident != stored:
                problems.append(f"{oid}: DHT copy {resident!r} != store copy {stored!r}")
        if platform.store.count(dht.collection) != len(self.ids):
            problems.append(
                f"store holds {platform.store.count(dht.collection)} documents, "
                f"expected {len(self.ids)}"
            )
        return problems

    # -- counters the layers already expose ---------------------------------

    def counters(self) -> dict[str, float]:
        platform = self.platform
        dht = platform.crm.runtimes[CLS].dht
        write_behind = dht.write_behind_stats
        profile = platform.env.profile
        return {
            "dispatches": profile.total_dispatches if profile is not None else 0,
            "dht_hits": dht.mem_hits,
            "dht_misses": dht.mem_misses,
            "kv_reads": platform.store.read_ops,
            "kv_write_ops": platform.store.write_ops,
            "flush_ops": write_behind["flush_ops"],
            "docs_flushed": write_behind["docs_flushed"],
            "cas_conflicts": platform.engine.cas_conflicts,
            "adds": sum(self.adds),
        }


def set_up(workload: Workload, seed: int, sizes: Sizes, started: float) -> tuple[SimRun, float]:
    """Build, deploy, create, flush, warm up.  ``started`` is when the
    child process began, so interpreter start and imports count."""
    run = SimRun(workload, seed, sizes.sim_objects)
    run.warm_up(sizes.warmup_sim_s)
    return run, time.time() - started


def timed_child(workload: Workload, seed: int, seconds: float, sizes: Sizes,
                started: float) -> dict[str, Any]:
    """One fresh process: set-up, the timed phase, the output check."""
    run, setup_s = set_up(workload, seed, sizes, started)
    before = estimators.calibrate()
    measured = run.measure(seconds, sizes.window_sim_s)
    drift = abs(estimators.calibrate() / before - 1.0)
    problems = run.verify()
    run.platform.shutdown()
    return {
        **measured,
        "setup_s": setup_s,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "problems": problems,
        "peak_rss_mb": estimators.peak_rss_mb(),
        "calibration_drift": drift,
        "plan": run.plan.digest,
    }


def traced_child(workload: Workload, seed: int, sizes: Sizes, started: float) -> dict[str, Any]:
    """The traced run: a fixed op count untraced, the same count under
    cProfile with the kernel's dispatch counter on, then (on the workload
    that has planes) the plane-cost matrix."""
    run, _ = set_up(workload, seed, sizes, started)
    run.drain_clients()
    ops = sizes.trace_ops
    before_drift = estimators.calibrate()
    run.stats = LoadStats(warmup_s=run.platform.now)
    run.window_end = math.inf
    plain_s = run.run_ops(ops)
    run.window_end = -math.inf

    run.platform.env.enable_profiling()
    before = run.counters()
    profile = cProfile.Profile()
    profile.enable()
    traced_s = run.run_ops(ops)
    profile.disable()
    after = run.counters()
    drift = abs(estimators.calibrate() / before_drift - 1.0)
    delta = {key: after[key] - before[key] for key in after}
    folded = layers.attribute(profile)

    metrics = layers.layer_metrics(folded, ops, traced_s)
    reads = delta["dht_hits"] + delta["dht_misses"]
    commits = delta["adds"] + delta["cas_conflicts"]
    metrics.update(
        {
            "sim.kernel.dispatches_per_op": delta["dispatches"] / ops,
            "storage.dht.hit_ratio": delta["dht_hits"] / reads if reads else 0.0,
            "storage.kv.reads_per_op": delta["kv_reads"] / ops,
            "storage.kv.write_ops_per_op": delta["kv_write_ops"] / ops,
            "storage.write_behind.docs_per_batch": (
                delta["docs_flushed"] / delta["flush_ops"] if delta["flush_ops"] else 0.0
            ),
            "invoker.engine.cas_conflict_ratio": (
                delta["cas_conflicts"] / commits if commits else 0.0
            ),
            "sim.latency_p50_ms": run.stats.latency_percentile(50) * 1e3,
            "sim.latency_p99_ms": run.stats.latency_percentile(99) * 1e3,
            "trace.overhead_ratio": traced_s / plain_s,
            "host.calibration_drift": drift,
        }
    )
    problems = run.verify()
    run.platform.shutdown()
    outcome = {
        "ops": ops,
        "plain_us_per_op": plain_s * 1e6 / ops,
        "traced_us_per_op": traced_s * 1e6 / ops,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "problems": problems,
    }
    del run  # the matrix builds seven more platforms: free this one first
    if workload.planes:
        metrics.update(plane_matrix(workload, seed, sizes))
    return {**outcome, "metrics": metrics}


_ARM_ROUNDS = 8


def plane_matrix(workload: Workload, seed: int, sizes: Sizes) -> dict[str, float]:
    """Each plane's marginal cost: the same input with only that plane
    on, minus the planes-off arm.  The dispatch delta is exact for a
    seed.  The µs delta carries the host's noise: the arms take turns,
    chunk by chunk, so that a slow spell of the host falls on all of
    them, and each arm reports its best chunk."""
    arms = [()] + [(plane,) for plane in spec.ALL_PLANES]
    runs = [SimRun(workload, seed, sizes.plane_arm_objects, planes=planes) for planes in arms]
    chunk = sizes.plane_arm_ops // _ARM_ROUNDS
    for run in runs:
        run.run_ops(chunk)  # warm-up
    profiles = [run.platform.env.enable_profiling() for run in runs]
    dispatches = [profile.total_dispatches for profile in profiles]
    costs: list[list[float]] = [[] for _ in runs]
    for _ in range(_ARM_ROUNDS):
        for cost, run in zip(costs, runs):
            cost.append(run.run_ops(chunk) * 1e6 / chunk)
    per_op = [
        (profile.total_dispatches - before) / (chunk * _ARM_ROUNDS)
        for profile, before in zip(profiles, dispatches)
    ]
    for run in runs:
        run.platform.shutdown()
    out: dict[str, float] = {}
    for (plane,), cost, dispatched in zip(arms[1:], costs[1:], per_op[1:]):
        out[f"plane.{plane}.marginal_us_per_op"] = min(cost) - min(costs[0])
        out[f"plane.{plane}.marginal_dispatches_per_op"] = dispatched - per_op[0]
    return out
