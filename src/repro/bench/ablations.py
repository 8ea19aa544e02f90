"""Ablations for the design choices DESIGN.md calls out.

Each ablation is one row of :data:`ABLATIONS`: its default arms (the
rows of its EXPERIMENTS.md table) and the function that measures one arm
on a fresh rig.  :func:`run_ablation` runs the arms in order and returns
their typed rows:

* ABL-BATCH — the write-behind batch size is *the* knob behind
  Oparaca's Fig. 3 advantage: batch 1 turns every object update into an
  individual DB write (Knative-like cost), larger batches amortize the
  per-operation overhead.
* ABL-COLD — scale-to-zero saves idle replicas but charges the first
  burst a cold start; pre-warming (``min_scale > 0``) trades idle cost
  for tail latency.  This is the "optimal configurations to avoid
  potential overheads" discussion of the tutorial abstract.
* ABL-LOCALITY — routing invocations to the node owning the object's
  DHT partition vs spraying them randomly (§II-A's data-locality
  optimization).
* ABL-PRESIGN — presigned direct object-store access vs proxying file
  bytes through the platform (§III-D), across payload sizes.
* ABL-REPL — the DHT replication factor: write fan-out cost vs the share
  of state that survives a node crash on the memory-only system.
* ABL-BURST — autoscaler tracking of bursty arrivals (§II-D): an
  open-loop workload alternates quiet and burst phases, and
  pre-warming buys down the burst-phase tail the autoscaler's reaction
  time costs.
* ABL-READPATH — the read-side levers (single-flight coalescing,
  miss-read batching, near cache) under the thundering-herd miss storm
  that follows a node failure.
* ABL-QOS — the QoS enforcement plane under a noisy neighbour: a
  latency-declared class sharing the async path with a flooding batch
  class, with the plane off (FIFO) vs on (admission + weighted-fair
  queueing + load shedding).
* ABL-DURABILITY — a crash drill over a ``persistence: strong`` ledger
  and a ``persistence: standard`` write-behind-backed cart, with the
  durability plane off vs on: acknowledged increments are audited
  against post-crash state, and the plane's measured RPO/RTO is
  reported per class.
* ABL-FEDERATION — edge-pinned (NFR-scored) vs core-only placement
  under a geo-distributed workload on a three-tier topology, plus a
  deliberately misconfigured control arm whose cross-jurisdiction
  accesses are rejected and counted.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Iterator, Mapping

from repro.bench.config import Fig3Config
from repro.bench.scalability import run_closed_loop
from repro.bench.systems import OprcSystem
from repro.durability.plane import DurabilityConfig
from repro.faas.knative import KnativeEngine, KnativeModel, KnativeService
from repro.federation import FederationConfig, Zone
from repro.invoker.router import PlacementPolicy
from repro.model.function import FunctionDefinition, ProvisionSpec
from repro.monitoring.events import EventLog
from repro.monitoring.tracing import Tracer
from repro.orchestrator.cluster import Cluster
from repro.orchestrator.resources import ResourceSpec
from repro.orchestrator.scheduler import Scheduler
from repro.faas.registry import FunctionRegistry
from repro.faas.runtime import InvocationTask
from repro.platform.oparaca import Oparaca, PlatformConfig
from repro.qos.plane import QosConfig
from repro.sim.kernel import Environment, Event, all_of, any_of
from repro.sim.network import Network, NetworkModel
from repro.sim.workload import PhasedOpenLoopGenerator
from repro.stats import nearest_rank
from repro.storage.dht import Dht, DhtModel
from repro.storage.kv import DbModel, DocumentStore
from repro.storage.object_store import ObjectStore, ObjectStoreModel
from repro.storage.read_path import ReadBatchConfig

__all__ = [
    "Ablation",
    "ABLATIONS",
    "run_ablation",
    "BatchingRow",
    "ColdStartResult",
    "LocalityRow",
    "PresignRow",
    "ReplicationRow",
    "BurstRow",
    "ReadPathRow",
    "QosRow",
    "DurabilityRow",
    "FederationRow",
]


@dataclass(frozen=True)
class Ablation:
    """One ablation: the arms its benchmark runs, and ``arm(value,
    **params)``, which measures one arm on a fresh rig and returns its
    typed row (ABL-DURABILITY: the list of its two class rows)."""

    arms: tuple[Any, ...]
    arm: Callable[..., Any]


def run_ablation(name: str, arms: Iterable[Any] | None = None, **params: Any) -> list[Any]:
    """Run ablation ``name`` over ``arms`` (default: its benchmark arms)
    with ``params`` passed to every arm; the rows come out in arm order."""
    ablation = ABLATIONS[name]
    rows: list[Any] = []
    for value in ablation.arms if arms is None else arms:
        measured = ablation.arm(value, **params)
        rows.extend(measured if isinstance(measured, list) else [measured])
    return rows


# ---------------------------------------------------------------------------
# Shared rig openers
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _platform_arm(
    config: PlatformConfig,
    package: str,
    images: Mapping[str, tuple[Callable[..., Any], float]],
    objects: Mapping[str, int],
) -> Iterator[tuple[Oparaca, dict[str, list[str]]]]:
    """Open one arm of a platform-based ablation: build the platform,
    register ``images`` (image → handler, service time), deploy
    ``package`` and create ``objects[cls]`` objects per class — under
    explicit ids, as the default uuid4-based ones would randomize DHT
    placement (and so latency) run-to-run.  The platform shuts down
    when the arm's block exits."""
    platform = Oparaca(config)
    for image, (handler, service_time_s) in images.items():
        platform.register_image(image, handler, service_time_s)
    platform.deploy(package)
    ids = {
        cls: [
            platform.new_object(cls, object_id=f"{cls.lower()}-{index}")
            for index in range(count)
        ]
        for cls, count in objects.items()
    }
    try:
        yield platform, ids
    finally:
        platform.shutdown()


def _knative_service(
    env: Environment,
    name: str,
    nodes: int,
    handler: Callable[..., Any],
    service_time_s: float,
    model: KnativeModel,
    min_scale: int,
    **observers: Any,
) -> tuple[KnativeService, Callable[[int], Event]]:
    """One Knative service ``name`` (image ``abl/<name>``, concurrency
    8, up to 16 replicas) deployed on a fresh ``nodes``-VM cluster, and
    the function that offers it request number ``index``; ``observers``
    are the engine's ``tracer=`` / ``events=``."""
    cluster = Cluster(env)
    for index in range(nodes):
        cluster.add_node(f"vm-{index}", ResourceSpec(4000, 16384))
    registry = FunctionRegistry()
    registry.register(f"abl/{name}", handler, service_time_s=service_time_s)
    engine = KnativeEngine(env, Scheduler(cluster), registry, model, **observers)
    service = engine.deploy(
        name,
        FunctionDefinition(
            name=name,
            image=f"abl/{name}",
            provision=ProvisionSpec(concurrency=8, min_scale=min_scale, max_scale=16),
        ),
    )

    def invoke(index: int) -> Event:
        task = InvocationTask(
            request_id=f"b{index}", cls="-", object_id="x", fn_name=name, image=f"abl/{name}"
        )
        return service.invoke(task)

    return service, invoke


# ---------------------------------------------------------------------------
# ABL-BATCH
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchingRow:
    batch_size: int
    throughput_rps: float
    db_write_ops: int
    db_docs_written: int
    mean_latency_ms: float

    @property
    def docs_per_op(self) -> float:
        if not self.db_write_ops:
            return 0.0
        return self.db_docs_written / self.db_write_ops


def _batching_arm(batch: int, nodes: int = 6, cfg: Fig3Config | None = None) -> BatchingRow:
    """One write-behind batch size on the ``oprc-bypass`` system.

    The default configuration differs from the Fig. 3 calibration in
    two deliberate ways: the DB cost profile is *operation-dominated*
    (high fixed cost per write op, cheap documents — the regime where
    batching is the decisive mechanism), and the object population is
    much larger than the write-behind buffers so updates rarely coalesce
    — isolating batching from coalescing.
    """
    cell_cfg = dataclasses.replace(
        cfg or Fig3Config.quick(),
        batch_size=batch,
        db_op_cost=20.0,
        db_doc_cost=2.0,
        objects=20000,
        max_pending=max(500, batch),
    )
    system = OprcSystem(cell_cfg, nodes, variant="oprc-bypass")
    system.prepare()
    stats = run_closed_loop(system)
    extras = system.extras()
    row = BatchingRow(
        batch_size=batch,
        throughput_rps=stats.throughput(cell_cfg.horizon_s),
        db_write_ops=extras["db_write_ops"],
        db_docs_written=extras["db_docs_written"],
        mean_latency_ms=stats.mean_latency * 1000.0,
    )
    system.shutdown()
    return row


# ---------------------------------------------------------------------------
# ABL-COLD
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColdStartResult:
    min_scale: int
    first_latency_ms: float
    burst_p99_ms: float
    cold_starts: int
    idle_replicas: int
    #: Observability cross-checks: cold starts as seen by the tracer's
    #: ``faas.cold_start`` spans and the event log — all three counters
    #: must agree with ``KnativeService.cold_starts``.
    traced_cold_starts: int = 0
    event_cold_starts: int = 0


def _coldstart_arm(
    min_scale: int,
    burst: int = 24,
    idle_s: float = 60.0,
    cold_start_s: float = 1.8,
    service_time_s: float = 0.02,
) -> ColdStartResult:
    """Idle past the scale-to-zero grace, then fire a burst.

    ``min_scale=0`` pays the cold start on the first request; warm
    replicas answer immediately.
    """
    env = Environment()
    tracer = Tracer(env, enabled=True)
    events = EventLog(env, enabled=True)
    service, invoke = _knative_service(
        env,
        "echo",
        3,
        lambda ctx: {"ok": True},
        service_time_s,
        KnativeModel(cold_start_s=cold_start_s, scale_to_zero_grace_s=30.0),
        min_scale,
        tracer=tracer,
        events=events,
    )
    # Let the service go idle past the grace period.
    env.run(until=idle_s)
    idle_replicas = service.replicas
    latencies: list[float] = []

    def one_request(index: int) -> Generator:
        started = env.now
        yield invoke(index)
        latencies.append(env.now - started)

    processes = [env.process(one_request(i)) for i in range(burst)]
    env.run(until=all_of(env, processes))
    ordered = sorted(latencies)
    row = ColdStartResult(
        min_scale=min_scale,
        first_latency_ms=ordered[0] * 1000.0,
        burst_p99_ms=nearest_rank(ordered, 99) * 1000.0,
        cold_starts=service.cold_starts,
        idle_replicas=idle_replicas,
        traced_cold_starts=len(tracer.spans_named("faas.cold_start")),
        event_cold_starts=len(events.of_type("faas.cold_start")),
    )
    service.stop()
    return row


# ---------------------------------------------------------------------------
# ABL-LOCALITY
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalityRow:
    policy: str
    throughput_rps: float
    mean_latency_ms: float
    locality_ratio: float
    remote_transfers: int


def _locality_arm(
    policy: PlacementPolicy, nodes: int = 6, cfg: Fig3Config | None = None
) -> LocalityRow:
    """Locality-aware or random routing on ``oprc-bypass``.

    Uses a short function service time so the state round trips are a
    meaningful share of request latency.
    """
    cell_cfg = dataclasses.replace(
        cfg or Fig3Config.quick(),
        service_time_s=0.005,
        clients_per_vm=24,
        # A short steady-state window keeps the cell cheap: with a
        # 5 ms service time the law of large numbers kicks in fast.
        horizon_s=4.0,
        warmup_s=2.0,
        # Keep the DB out of the picture: this ablation is about the
        # network path to the object's partition.
        db_capacity_units=10_000_000.0,
    )
    system = OprcSystem(cell_cfg, nodes, variant="oprc-bypass")
    system.prepare()
    router = system.platform.crm.runtime("Doc").router
    router.policy = policy
    stats = run_closed_loop(system)
    row = LocalityRow(
        policy=policy.value,
        throughput_rps=stats.throughput(cell_cfg.horizon_s),
        mean_latency_ms=stats.mean_latency * 1000.0,
        locality_ratio=router.locality_ratio,
        remote_transfers=system.platform.network.remote_transfers,
    )
    system.shutdown()
    return row


# ---------------------------------------------------------------------------
# ABL-REPL
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplicationRow:
    replication: int
    throughput_rps: float
    mean_latency_ms: float
    survivors_pct: float


def _replication_arm(
    replication: int,
    nodes: int = 6,
    cfg: Fig3Config | None = None,
    probe_objects: int = 300,
) -> ReplicationRow:
    """DHT replication factor: write fan-out cost vs crash survival.

    Runs the memory-only system (so the document store cannot mask
    losses), measures saturated throughput, then crashes one node and
    probes what fraction of a sample of objects is still readable.
    """
    base = cfg or Fig3Config.quick()
    system = OprcSystem(base, nodes, variant="oprc-bypass-nonpersist", replication=replication)
    system.prepare()
    stats = run_closed_loop(system)
    platform = system.platform
    platform.fail_node(platform.cluster.node_names[0])
    probe = system._object_ids[:probe_objects]
    survivors = sum(
        1 for object_id in probe if platform.invoke(object_id, "get", raise_on_error=False).ok
    )
    # Read after the probe: requests in flight at the horizon finish
    # (and are recorded) while it runs.
    row = ReplicationRow(
        replication=replication,
        throughput_rps=stats.throughput(base.horizon_s),
        mean_latency_ms=stats.mean_latency * 1000.0,
        survivors_pct=100.0 * survivors / max(1, len(probe)),
    )
    system.shutdown()
    return row


# ---------------------------------------------------------------------------
# ABL-BURST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BurstRow:
    min_scale: int
    base_p99_ms: float
    burst_p99_ms: float
    peak_replicas: int

    @property
    def degradation(self) -> float:
        if self.base_p99_ms <= 0:
            return 0.0
        return self.burst_p99_ms / self.base_p99_ms


def _burst_arm(
    min_scale: int,
    base_rate: float = 40.0,
    burst_rate: float = 400.0,
    phase_s: float = 15.0,
    cycles: int = 2,
    service_time_s: float = 0.05,
) -> BurstRow:
    """Autoscaler tracking of bursty arrivals (paper §II-D).

    An open-loop workload alternates quiet and burst phases; the KPA
    chases the burst but pays its reaction time (tick interval + cold
    start) in burst-phase tail latency.  Pre-warming (higher
    ``min_scale``) buys the tail down — the trade the tutorial's
    configuration discussion is about.
    """
    env = Environment()
    service, invoke = _knative_service(
        env,
        "burst",
        4,
        lambda ctx: {},
        service_time_s,
        KnativeModel(cold_start_s=1.5, autoscale_interval_s=2.0, scale_to_zero_grace_s=3600),
        min_scale,
    )
    peak = {"replicas": 0}

    def one_request(index: int) -> Generator:
        yield invoke(index)
        peak["replicas"] = max(peak["replicas"], service.replicas)

    # Let the initial replicas finish booting before offering load,
    # so phase statistics measure steady behaviour, not deploy-time
    # boot transients.
    env.run(until=3.0)
    horizon = env.now + phase_s * 2 * cycles
    generator = PhasedOpenLoopGenerator(
        env,
        one_request,
        phases=[(phase_s, base_rate), (phase_s, burst_rate)],
        horizon_s=horizon,
    )
    env.run(until=horizon + 5.0)
    base_stats, burst_stats = generator.phase_stats
    row = BurstRow(
        min_scale=min_scale,
        base_p99_ms=base_stats.latency_percentile(99) * 1000.0,
        burst_p99_ms=burst_stats.latency_percentile(99) * 1000.0,
        peak_replicas=peak["replicas"],
    )
    service.stop()
    return row


# ---------------------------------------------------------------------------
# ABL-READPATH
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReadPathRow:
    mode: str
    store_read_ops: int
    store_multi_read_ops: int
    mem_misses: int
    coalesced: int
    near_hits: int
    mean_get_ms: float


def _readpath_arm(
    mode: str, nodes: int = 4, objects: int = 300, readers_per_key: int = 4
) -> ReadPathRow:
    """Read-path levers under a post-``fail_node`` miss storm.

    Seeds a persistent DHT, crashes one node (its partition's memory is
    lost; the documents survive in the store), then fires
    ``readers_per_key`` concurrent gets per object from the surviving
    nodes — the thundering herd every real recovery produces.  A second
    identical wave follows, exercising the near cache on non-owner
    callers.  With everything ``off`` each concurrent miss is its own
    ``op_cost + read_cost`` store read; coalescing collapses them to one
    per key, batching folds keys into multi-gets, and the near cache
    absorbs the repeat wave locally.
    """
    env = Environment()
    network = Network(env, NetworkModel())
    store = DocumentStore(env, DbModel(capacity_units_per_s=50000.0))
    model = DhtModel(
        replication=1,
        persistent=True,
        read_coalescing="coalesce" in mode,
        read_batch=(
            ReadBatchConfig(max_batch=32, linger_s=0.002)
            if "batch" in mode
            else None
        ),
        near_cache_entries=objects if "near" in mode else 0,
    )
    node_names = [f"vm-{i}" for i in range(nodes)]
    dht = Dht(env, node_names, network, store, model)
    keys: list[str] = []
    for index in range(objects):
        key = f"obj-{index}"
        dht.seed({"id": key, "version": 1, "payload": "x" * 64})
        keys.append(key)
    dht.fail_node(node_names[0])
    callers = node_names[1:]
    latencies: list[float] = []

    def one_get(key: str, caller: str) -> Generator:
        started = env.now
        yield dht.get(key, caller=caller)
        latencies.append(env.now - started)

    for _wave in range(2):
        processes = [
            env.process(one_get(key, callers[(index + reader) % len(callers)]))
            for index, key in enumerate(keys)
            for reader in range(readers_per_key)
        ]
        env.run(until=all_of(env, processes))
    stats = dht.read_path_stats
    return ReadPathRow(
        mode=mode,
        store_read_ops=store.read_ops,
        store_multi_read_ops=store.multi_read_ops,
        mem_misses=dht.mem_misses,
        coalesced=stats["read_coalesced"],
        near_hits=stats["near_hits"],
        mean_get_ms=sum(latencies) / max(1, len(latencies)) * 1000.0,
    )


# ---------------------------------------------------------------------------
# ABL-PRESIGN
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PresignRow:
    size_bytes: int
    direct_ms: float
    proxied_ms: float

    @property
    def overhead_factor(self) -> float:
        if self.direct_ms <= 0:
            return 0.0
        return self.proxied_ms / self.direct_ms


def _presigned_arm(size: int) -> PresignRow:
    """Presigned direct download vs platform-proxied download.

    The proxied path moves the bytes twice (store → platform, then
    platform → client over the fabric), paying an extra per-transfer
    latency plus a second serialization of the payload; presigned URLs
    hand the client a direct path and skip that hop entirely — §III-D's
    rationale for adopting the S3 presigning technique.
    """
    env = Environment()
    store = ObjectStore(env, ObjectStoreModel())
    network = Network(env, NetworkModel())
    store.create_bucket("media")
    store.put_object("media", "blob", b"x" * size)

    def direct() -> Generator:
        url = store.presign("media", "blob", "GET")
        yield store.presigned_get_timed(url)

    def proxied() -> Generator:
        obj = yield store.get_timed("media", "blob")  # store -> platform
        yield network.transfer("gateway", "client", obj.size)  # platform -> client

    started = env.now
    env.run(until=env.process(direct()))
    direct_ms = (env.now - started) * 1000.0
    started = env.now
    env.run(until=env.process(proxied()))
    proxied_ms = (env.now - started) * 1000.0
    return PresignRow(size_bytes=size, direct_ms=direct_ms, proxied_ms=proxied_ms)


# ---------------------------------------------------------------------------
# ABL-QOS
# ---------------------------------------------------------------------------


#: Two-class noisy-neighbour package: Hot declares the full NFR triple
#: (throughput guarantee, latency target, high priority); Noisy is a
#: budget-capped batch class with no declarations at all.
QOS_PACKAGE = """
name: qos-bench
classes:
  - name: Hot
    qos: {throughput: 100, latency: 50, priority: 8}
    functions:
      - name: work
        image: bench/hot
  - name: Noisy
    constraint: {budget: 10}
    functions:
      - name: work
        image: bench/noisy
"""


@dataclass(frozen=True)
class QosRow:
    """One ABL-QOS cell: the Hot class's fate next to a flooding Noisy
    neighbour, with the QoS plane off (``fifo``) or on (``qos``)."""

    mode: str
    hot_p95_ms: float
    hot_target_ms: float
    hot_completed: int
    hot_failed: int
    noisy_completed: int
    noisy_rejected: int
    noisy_shed: int

    @property
    def hot_met(self) -> bool:
        """Did Hot's observed p95 stay within its declared target?"""
        return self.hot_p95_ms <= self.hot_target_ms


def _qos_arm(
    mode: str,
    seed: int = 0,
    chaos: bool = False,
    noisy_backlog: int = 800,
    hot_rps: float = 80.0,
    hot_duration_s: float = 5.0,
    hot_objects: int = 16,
    noisy_objects: int = 64,
) -> QosRow:
    """The noisy-neighbour experiment behind the QoS enforcement plane.

    A latency-sensitive class (``Hot``: declares ``throughput: 100``,
    ``latency: 50``, priority 8) shares the async invocation path with a
    budget-capped batch class (``Noisy``) that dumps ``noisy_backlog``
    fire-and-forget invocations at t=0.  Hot then offers a steady
    ``hot_rps`` for ``hot_duration_s``.

    * ``fifo`` — the plane off (baseline): Hot's requests queue behind
      the entire Noisy backlog, so its completion p95 blows far past
      the declared 50 ms.
    * ``qos`` — the plane on: deficit-round-robin weights (8 vs the
      economy tier's 1) serve Hot around the backlog, and the overload
      controller sheds queued Noisy work once total depth trips the
      watermark.  Hot holds its p95; Noisy pays with shed work.

    With ``chaos`` set, the builtin ``overload`` fault plan (every node
    slowed 6x plus a cold-start storm) plays out on top — shed counts
    must then still be identical run-to-run for one seed, which is what
    the determinism gate in CI asserts.
    """
    with _platform_arm(
        PlatformConfig(nodes=3, seed=seed, qos=QosConfig(enabled=(mode == "qos"))),
        QOS_PACKAGE,
        {
            "bench/hot": (lambda ctx: {"ok": True}, 0.002),
            "bench/noisy": (lambda ctx: {"ok": True}, 0.02),
        },
        {"Hot": hot_objects, "Noisy": noisy_objects},
    ) as (platform, ids):
        env = platform.env
        hot_ids, noisy_ids = ids["Hot"], ids["Noisy"]
        # Warm both classes so the measured phase exercises queueing, not
        # first-touch cold starts.
        for oid in (hot_ids[0], noisy_ids[0]):
            platform.invoke(oid, "work")
        platform.advance(1.0)

        if chaos:
            from repro.chaos.plans import named_plan

            platform.inject_chaos(
                named_plan("overload", list(platform.cluster.node_names))
            )

        hot_results: list[tuple[float, Any]] = []
        noisy_results: list[tuple[float, Any]] = []

        def waiter(completion, submitted_at: float, sink: list) -> Generator:
            result = yield completion
            sink.append((env.now - submitted_at, result))

        waiters = []
        for index in range(noisy_backlog):
            completion = platform.invoke_async(
                noisy_ids[index % len(noisy_ids)], "work"
            )
            waiters.append(
                env.process(waiter(completion, env.now, noisy_results))
            )

        def hot_driver() -> Generator:
            interval = 1.0 / hot_rps
            for index in range(int(hot_rps * hot_duration_s)):
                completion = platform.invoke_async(
                    hot_ids[index % len(hot_ids)], "work"
                )
                waiters.append(
                    env.process(waiter(completion, env.now, hot_results))
                )
                yield env.timeout(interval)

        driver = env.process(hot_driver())
        env.run(until=driver)
        done = all_of(env, waiters)
        env.run(until=any_of(env, [done, env.timeout(120.0)]))

        hot_ok = [latency for latency, result in hot_results if result.ok]
        return QosRow(
            mode=mode,
            hot_p95_ms=nearest_rank(sorted(hot_ok), 95) * 1000.0,
            hot_target_ms=50.0,
            hot_completed=len(hot_ok),
            hot_failed=sum(1 for _, r in hot_results if not r.ok),
            noisy_completed=sum(1 for _, r in noisy_results if r.ok),
            noisy_rejected=sum(
                1 for _, r in noisy_results if r.error_type == "RateLimitedError"
            ),
            noisy_shed=sum(1 for _, r in noisy_results if r.error_type == "OverloadError"),
        )


# ---------------------------------------------------------------------------
# ABL-DURABILITY
# ---------------------------------------------------------------------------


#: Two-class crash-drill package: Ledger declares ``persistence: strong``
#: (every commit synchronously durable — RPO must be 0), Cart declares
#: ``persistence: standard`` (periodic snapshot cuts over the write-behind
#: store path — RPO bounded by the cut interval).
DURABILITY_PACKAGE = """
name: durability-bench
classes:
  - name: Ledger
    constraint: {persistence: strong}
    keySpecs:
      - { name: count, type: INT, default: 0 }
    functions:
      - name: bump
        image: bench/bump
  - name: Cart
    constraint: {persistence: standard}
    keySpecs:
      - { name: count, type: INT, default: 0 }
    functions:
      - name: bump
        image: bench/bump
"""


@dataclass(frozen=True)
class DurabilityRow:
    """One class of one ABL-DURABILITY cell: acknowledged increments
    audited against the state that survived a node crash."""

    mode: str  # "off" (no durability plane) | "on"
    cls: str
    policy: str  # resolved durability mode ("on_commit"/"periodic"/"-")
    acked_writes: int
    surviving_count: int
    readable_objects: int
    objects: int
    cuts: int
    epoch_writes: int
    #: Measured by the recovery pass (0.0 and no recovery when "off").
    recovered: bool
    rpo_s: float
    rto_s: float
    lost_writes: int
    restored_docs: int

    @property
    def lost_acked(self) -> int:
        """Acknowledged increments missing from the surviving state."""
        return self.acked_writes - self.surviving_count


def _bump(ctx):
    ctx.state["count"] = int(ctx.state.get("count") or 0) + 1
    return {"count": ctx.state["count"]}


def _durability_arm(
    mode: str,
    seed: int = 0,
    objects_per_class: int = 8,
    rounds: int = 24,
    crash_round: int = 18,
    burst_rounds: int = 6,
    interval_s: float = 0.02,
    snapshot_interval_s: float = 0.25,
) -> list[DurabilityRow]:
    """The crash-restore drill behind the durability plane.

    Every round bumps a counter on each object of both classes through
    the synchronous invoke path (each ``ok`` result is an acknowledged
    write), then at ``crash_round`` one node fails: its DHT partition
    memory and unflushed write-behind buffer are gone.  Right before the
    crash the drill bursts ``burst_rounds`` extra bumps onto the keys
    the victim owns, so acknowledged-but-unflushed writes are provably
    in its buffer when it dies — the window the write-behind trade-off
    exposes.

    * ``off`` — no durability plane: what survives is whatever the
      write-behind flusher happened to persist plus other replicas;
      recently acknowledged Cart increments are silently lost and
      nothing measures the damage.
    * ``on`` — the plane recovers each class from its best durable
      source (snapshot generations, commit epochs, flushed store
      copies), replays the commit log to the crash point, and reports
      measured RPO/RTO.  Ledger (``strong``) must come back with RPO 0;
      Cart's RPO is bounded by the snapshot/flush cadence.

    Deterministic for a fixed seed: object ids are explicit so DHT
    placement never depends on uuid4.
    """
    with _platform_arm(
        PlatformConfig(
            nodes=3,
            seed=seed,
            events_enabled=True,
            durability=DurabilityConfig(
                enabled=(mode == "on"),
                default_interval_s=snapshot_interval_s,
            ),
        ),
        DURABILITY_PACKAGE,
        {"bench/bump": (_bump, 0.001)},
        {"Ledger": objects_per_class, "Cart": objects_per_class},
    ) as (platform, ids):
        env = platform.env
        acked = {cls: 0 for cls in ids}
        for round_index in range(rounds):
            for cls in ("Ledger", "Cart"):
                for oid in ids[cls]:
                    result = platform.invoke(oid, "bump", raise_on_error=False)
                    if result.ok:
                        acked[cls] += 1
            if round_index == crash_round:
                # The victim is the node owning the first Cart object, so
                # the burst below provably lands in its write-behind
                # buffer (and its partition memory) before it dies.
                victim = platform.crm.runtime("Cart").dht.owner(ids["Cart"][0])
                victim_keys = {
                    cls: [
                        oid
                        for oid in ids[cls]
                        if platform.crm.runtime(cls).dht.owner(oid) == victim
                    ]
                    for cls in ("Ledger", "Cart")
                }
                # Interleave the classes so both have acknowledged writes
                # still in the victim's buffer at the instant it dies.
                burst_targets = [
                    (cls, keys[index])
                    for index in range(
                        max(len(keys) for keys in victim_keys.values())
                    )
                    for cls, keys in victim_keys.items()
                    if index < len(keys)
                ]
                for _burst in range(burst_rounds):
                    for cls, oid in burst_targets:
                        result = platform.invoke(oid, "bump", raise_on_error=False)
                        if result.ok:
                            acked[cls] += 1
                platform.fail_node(victim)
                if platform.durability is not None:
                    recoveries = platform.durability.recoveries()
                    if recoveries:
                        env.run(until=all_of(env, recoveries))
            else:
                platform.advance(interval_s)
        platform.advance(1.0)  # drain write-behind before the audit
        rows: list[DurabilityRow] = []
        for cls in ("Ledger", "Cart"):
            surviving = 0
            readable = 0
            for oid in ids[cls]:
                result = platform.invoke(oid, "get", raise_on_error=False)
                if result.ok:
                    readable += 1
                    surviving += int(result.output["state"].get("count") or 0)
            policy = "-"
            cuts = epoch_writes = lost_writes = restored_docs = 0
            recovered = False
            rpo_s = rto_s = 0.0
            if platform.durability is not None:
                policy_obj = platform.durability.policy_for(cls)
                policy = policy_obj.mode if policy_obj is not None else "-"
                tracker = platform.durability.tracker_for(cls)
                if tracker is not None:
                    cuts = tracker.cuts_taken
                    epoch_writes = tracker.epoch_writes
                    if tracker.last_recovery is not None:
                        recovered = True
                        rpo_s = tracker.last_recovery["rpo_s"]
                        rto_s = tracker.last_recovery["rto_s"]
                        lost_writes = tracker.last_recovery["lost_writes"]
                        restored_docs = tracker.last_recovery["restored_docs"]
            rows.append(
                DurabilityRow(
                    mode=mode,
                    cls=cls,
                    policy=policy,
                    acked_writes=acked[cls],
                    surviving_count=surviving,
                    readable_objects=readable,
                    objects=objects_per_class,
                    cuts=cuts,
                    epoch_writes=epoch_writes,
                    recovered=recovered,
                    rpo_s=rpo_s,
                    rto_s=rto_s,
                    lost_writes=lost_writes,
                    restored_docs=restored_docs,
                )
            )
        return rows


# ---------------------------------------------------------------------------
# ABL-FEDERATION
# ---------------------------------------------------------------------------


#: Geo-distributed package: Sensor declares a 20 ms latency NFR (free to
#: live anywhere — the placement mode decides where), Vault is pinned to
#: the ``edge`` jurisdiction regardless of mode.
FEDERATION_PACKAGE = """
name: federation-bench
classes:
  - name: Sensor
    qos: {latency: 20}
    keySpecs:
      - { name: n, type: INT, default: 0 }
    functions:
      - name: bump
        image: bench/geo-bump
  - name: Vault
    constraint: {jurisdiction: edge}
    keySpecs:
      - { name: n, type: INT, default: 0 }
    functions:
      - name: bump
        image: bench/geo-bump
"""

#: The three-tier topology: two edge sites under one regional DC under
#: the core, and the RTT of every zone pair.
FEDERATION_ZONES = (
    Zone("edge-a", tier="edge", region="edge", parent="region-a"),
    Zone("edge-b", tier="edge", region="edge", parent="region-a"),
    Zone("region-a", tier="regional", parent="core"),
    Zone("core", tier="core"),
)
FEDERATION_RTT = (
    ("edge-a", "edge-b", 0.012),
    ("edge-a", "region-a", 0.02),
    ("edge-b", "region-a", 0.02),
    ("edge-a", "core", 0.08),
    ("edge-b", "core", 0.08),
    ("region-a", "core", 0.03),
)


@dataclass(frozen=True)
class FederationRow:
    """One ABL-FEDERATION cell: the latency-declared Sensor class under
    one placement arm of the federated three-tier topology."""

    mode: str  # "core-only" | "edge-pinned" | "misconfigured"
    placement: str  # resolved planner mode
    sensor_p95_ms: float
    sensor_target_ms: float
    completed: int
    failed: int
    #: Invocations served by a replica outside the client's origin zone.
    cross_zone: int
    #: Cross-jurisdiction accesses rejected for the edge-pinned Vault
    #: class — zero unless clients are deliberately misconfigured.
    vault_rejections: int
    vault_completed: int

    @property
    def sensor_met(self) -> bool:
        return self.sensor_p95_ms <= self.sensor_target_ms


def _federation_arm(
    mode: str, seed: int = 0, objects: int = 8, rounds: int = 25
) -> FederationRow:
    """Edge-pinned vs core-only placement under a geo-distributed load.

    Eight nodes spread over a three-tier topology (two edge sites, one
    regional DC, one core DC); clients originate from the edge sites and
    invoke through the gateway with ``x-origin-zone`` headers.

    * ``core-only`` — the control arm: the planner consolidates every
      class on the core tier, so each edge-origin invocation pays the
      80 ms edge↔core WAN leg and the Sensor class blows its declared
      20 ms latency NFR.
    * ``edge-pinned`` — NFR-scored placement: Sensor's latency bound
      pins it to the edge tier, clients hit a same-site replica, and
      the target holds.
    * ``misconfigured`` — edge-pinned placement but Vault's clients
      originate from ``core``, outside its declared ``edge``
      jurisdiction: every access is rejected with HTTP 451 and counted,
      which is what the ``jurisdiction`` NFR verdict reports.

    Jurisdiction rejections for Vault must be zero in the first two
    arms and exactly ``objects * rounds`` in the misconfigured one.
    """
    edge_origins = ("edge-a", "edge-b")
    placement = "core-only" if mode == "core-only" else "nfr"
    with _platform_arm(
        PlatformConfig(
            nodes=8,
            seed=seed,
            federation=FederationConfig(
                enabled=True,
                zones=FEDERATION_ZONES,
                zone_rtt_s=FEDERATION_RTT,
                placement=placement,
            ),
        ),
        FEDERATION_PACKAGE,
        {"bench/geo-bump": (lambda ctx: {"n": ctx.state.setdefault("n", 0)}, 0.002)},
        {"Sensor": objects, "Vault": objects},
    ) as (platform, ids):
        sensor_ids, vault_ids = ids["Sensor"], ids["Vault"]
        # Warm every replica so the measured phase is routing, not
        # cold starts.
        for oid in sensor_ids + vault_ids:
            platform.http(
                "POST",
                f"/api/objects/{oid}/invokes/bump",
                {},
                headers={"x-origin-zone": "edge-a"},
            )
        vault_origin = "core" if mode == "misconfigured" else "edge-a"
        latencies: list[float] = []
        completed = failed = vault_completed = 0
        for round_index in range(rounds):
            for index, oid in enumerate(sensor_ids):
                origin = edge_origins[(round_index + index) % len(edge_origins)]
                started = platform.now
                response = platform.http(
                    "POST",
                    f"/api/objects/{oid}/invokes/bump",
                    {},
                    headers={"x-origin-zone": origin},
                )
                if response.status == 200:
                    completed += 1
                    latencies.append(platform.now - started)
                else:
                    failed += 1
            for oid in vault_ids:
                response = platform.http(
                    "POST",
                    f"/api/objects/{oid}/invokes/bump",
                    {},
                    headers={"x-origin-zone": vault_origin},
                )
                if response.status == 200:
                    vault_completed += 1
        return FederationRow(
            mode=mode,
            placement=placement,
            sensor_p95_ms=nearest_rank(sorted(latencies), 95) * 1000.0,
            sensor_target_ms=20.0,
            completed=completed,
            failed=failed,
            cross_zone=platform.federation.class_stats("Sensor")["cross_zone"],
            vault_rejections=platform.federation.jurisdiction_rejections("Vault"),
            vault_completed=vault_completed,
        )


#: Every ablation, by the name its EXPERIMENTS.md section carries.  The
#: default arms are that section's table rows.
ABLATIONS: dict[str, Ablation] = {
    "ABL-BATCH": Ablation((1, 10, 100), _batching_arm),
    "ABL-COLD": Ablation((0, 1, 2), _coldstart_arm),
    "ABL-LOCALITY": Ablation((PlacementPolicy.LOCALITY, PlacementPolicy.RANDOM), _locality_arm),
    "ABL-PRESIGN": Ablation((10_000, 1_000_000, 10_000_000), _presigned_arm),
    "ABL-REPL": Ablation((1, 2), _replication_arm),
    "ABL-BURST": Ablation((1, 4), _burst_arm),
    "ABL-READPATH": Ablation(
        ("off", "coalesce", "coalesce+batch", "coalesce+batch+near"), _readpath_arm
    ),
    "ABL-QOS": Ablation(("fifo", "qos"), _qos_arm),
    "ABL-DURABILITY": Ablation(("off", "on"), _durability_arm),
    "ABL-FEDERATION": Ablation(("core-only", "edge-pinned", "misconfigured"), _federation_arm),
}
