"""Workload definitions and the seeded request generator.

Everything the platform sees is produced here from ``--seed``: the
package document, the object ids, and one op plan (op kind + target
object per request).  The platform itself is seeded with a constant, so
two runs with the same ``--seed`` replay the same simulated history.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from array import array
from dataclasses import dataclass
from typing import Any

CLS = "Order"
NOTE = "n" * 64  # the 64-byte STR key every object carries
SERVICE_TIME_S = 0.002
SIM_CLIENTS = 16
#: One timed slice of a sim workload, in simulated seconds.  The metrics
#: scrape and the snapshot cut of ``sim-planes`` are given the same
#: period, so every slice carries the same periodic plane work.
SLICE_SIM_S = 0.25
HTTP_CONNECTIONS = 2
#: The platform RNG seed is fixed: ``--seed`` drives the *inputs* only.
PLATFORM_SEED = 7

# Op kinds of the plan (one byte each).
PEEK, GET, ADD, ADD_ASYNC, QUERY = range(5)
OP_NAMES = ("peek", "get", "add", "add_async", "query")


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the platform configuration it runs on."""

    name: str
    why: str
    kind: str  # "sim" (one process on the sim kernel) or "http" (real sockets)
    mix: tuple[tuple[int, float], ...]  # (op kind, share); shares sum to 1
    zipf_s: float  # popularity skew of the object pick (0 = uniform)
    planes: tuple[str, ...] = ()
    #: per-node DHT cap as a fraction of each node's share of the objects
    #: (``None`` = unbounded, everything resident).
    dht_share: float | None = None


ALL_PLANES = ("qos", "durability", "metrics", "tracing", "scheduler", "federation")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sim-read",
            "read side of storage: Zipf(0.9) reads over a DHT capped at 1/4 of each "
            "node's share, so a steady fraction misses to the store; no commits",
            "sim",
            ((PEEK, 0.9), (GET, 0.1)),
            zipf_s=0.9,
            dht_share=0.25,
        ),
        Workload(
            "sim-write",
            "write side of storage: CAS commit, DHT put, write-behind batches, plus "
            "20% through the async topic drain; all resident, so store reads do nothing",
            "sim",
            ((ADD, 0.8), (ADD_ASYNC, 0.2)),
            zipf_s=0.5,
        ),
        Workload(
            "sim-planes",
            "mixed read/write with every plane on (QoS, durability, metrics+SLO, "
            "tracing+events, sim scheduler, 3-zone federation): the price of the planes",
            "sim",
            ((PEEK, 0.6), (ADD, 0.3), (ADD_ASYNC, 0.1)),
            zipf_s=0.5,
            planes=ALL_PLANES,
        ),
        Workload(
            "http-sqlite",
            "the real path: HTTP front, frame codec, two loopback hops, ledger, "
            "write-through SQLite; point writes beside indexed range queries",
            "http",
            ((PEEK, 0.45), (ADD, 0.45), (QUERY, 0.10)),
            zipf_s=0.0,
        ),
    )
}


@dataclass(frozen=True)
class Sizes:
    """How much work one run does.  ``standard`` is what BENCHMARK.json
    measures; ``smoke`` is the ~2 s tier the schema test and the
    determinism check use."""

    sim_objects: int
    http_objects: int
    warmup_sim_s: float
    window_sim_s: float  # simulated window the sim_* metrics are cut from
    http_warmup_ops: int
    trace_ops: int  # fixed op count of each untraced / profiled sim phase
    http_trace_ops: int  # ... and of each http phase (untraced, spans, profiled)
    plane_arm_objects: int
    plane_arm_ops: int
    open_loop_s: float
    #: rounds of fresh processes per run (a round is one server child on
    #: http-sqlite, one sim child per CPU otherwise).  Each process sets
    #: up, measures for ``--seconds / processes`` and checks its outputs:
    #: setup_s is their median and the slices of all of them are pooled,
    #: so one slow spell of the host does not decide the run.
    processes: int


STANDARD = Sizes(
    sim_objects=10_000,
    http_objects=2_000,
    warmup_sim_s=2.0,
    window_sim_s=3.0,
    http_warmup_ops=400,
    trace_ops=8_000,
    http_trace_ops=4_000,
    plane_arm_objects=2_000,
    plane_arm_ops=4_000,
    open_loop_s=10.0,
    processes=3,
)
SMOKE = Sizes(
    sim_objects=2_000,
    http_objects=300,
    warmup_sim_s=0.5,
    window_sim_s=0.5,
    http_warmup_ops=100,
    trace_ops=1_500,
    http_trace_ops=1_000,
    plane_arm_objects=500,
    plane_arm_ops=800,
    open_loop_s=2.0,
    processes=1,
)

OPEN_LOOP_RATE = 300.0  # req/s of the open-loop diagnostic


def package_yaml(workload: Workload) -> str:
    """The one-class package each workload deploys."""
    lines = ["name: perf", "classes:", f"  - name: {CLS}"]
    if workload.planes:
        # Declared throughput far above the offered load: admission is
        # exercised on every request and never refuses one.
        lines.append("    qos: {throughput: 1000000}")
        lines.append("    constraint: {persistence: standard}")
    elif workload.kind == "http":
        lines.append("    constraint: {persistence: strong}")
    lines += [
        "    keySpecs:",
        "      - {name: total, type: INT, default: 0}",
        '      - {name: note, type: STR, default: ""}',
        "    functions:",
        # Pre-warmed at the scale the autoscaler settles on under sixteen
        # clients, so no cold-start transient runs into the timed phase.
        "      - {name: add, image: perf/add, provision: {minScale: 3}}",
        "      - {name: peek, image: perf/peek, mutable: false, provision: {minScale: 3}}",
    ]
    return "\n".join(lines) + "\n"


def register_functions(platform: Any) -> None:
    """``add`` mutates, ``peek`` only reads; both take 2 ms of service."""

    @platform.function("perf/add", service_time_s=SERVICE_TIME_S)
    def add(ctx):
        ctx.state["total"] = ctx.state.get("total", 0) + ctx.payload.get("n", 1)
        return {"total": ctx.state["total"]}

    @platform.function("perf/peek", service_time_s=SERVICE_TIME_S)
    def peek(ctx):
        return {"total": ctx.state.get("total", 0)}


def initial_total(workload: Workload, index: int) -> int:
    """``http-sqlite`` spreads totals so range queries are selective."""
    return index % 100 if workload.kind == "http" else 0


@dataclass(frozen=True)
class Plan:
    """The generated request stream; request ``i`` is ``ops[i % len]``
    against object ``targets[i % len]`` (``args`` carries the query
    threshold).  Client ``c`` of ``n`` issues requests ``c, c+n, ...``."""

    ops: bytes
    targets: array
    args: bytes

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def digest(self) -> str:
        h = hashlib.sha256(self.ops)
        h.update(self.targets.tobytes())
        h.update(self.args)
        return h.hexdigest()[:16]


_BLOCK = 20  # every mix above is a whole number of twentieths
PLAN_LENGTH = _BLOCK * 6_500


def make_plan(workload: Workload, seed: int, objects: int, length: int = PLAN_LENGTH) -> Plan:
    """``--seed`` is the only source of randomness here."""
    rng = random.Random(f"{workload.name}:{seed}")
    # Popularity rank -> object index, shuffled so hot objects are not
    # neighbours on the hash ring by construction of their ids.
    by_rank = list(range(objects))
    rng.shuffle(by_rank)
    weights = [1.0 / (rank + 1) ** workload.zipf_s for rank in range(objects)]
    targets = rng.choices(by_rank, cum_weights=list(itertools.accumulate(weights)), k=length)
    # The op mix is exact in every block of twenty requests and only the
    # order inside a block is random: a seed changes which object gets
    # which op, not how many reads and writes a window holds, so the
    # simulated metrics differ little from seed to seed.
    block = [kind for kind, share in workload.mix for _ in range(round(share * _BLOCK))]
    assert len(block) == _BLOCK and length % _BLOCK == 0
    ops: list[int] = []
    for _ in range(length // _BLOCK):
        rng.shuffle(block)
        ops += block
    # Query thresholds: 50-60 % of the objects match.
    args = [40 + rng.randrange(10) for _ in range(length)]
    return Plan(bytes(ops), array("I", targets), bytes(args))
