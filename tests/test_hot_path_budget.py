"""The hot path's budget, in counts.

An invocation is three steps — load the object's state, offload state +
input to a pure function, commit through write-behind.  What the
simulator spends on them is held here as exact, seeded counts (they
repeat to the last unit, so nothing is timed): kernel dispatches, md5
hashes, ``json.dumps`` calls and document copies per operation, on a
three-node platform with every plane off.  A second arm turns every
plane on (the benchmark's ``sim-planes`` configuration) and holds what
the planes may *not* spend per request: no rebuilt request, no zone or
region resolved again, no call per kernel event for the profile — with
the dispatches and spans per operation pinned, so the saving cannot come
from doing less, and the document copies per operation pinned at one per
edge crossing.  A third arm, planes off again, issues only immutable
``peek``s and holds what a read may not decide again per request: the
class runtime looked up at most once per step, the pod picked without
per-pod properties, the handler's kind taken from its registration —
with the dispatches per peek and the final clock pinned.  A fourth arm,
planes off with sync and async adds after a warm-up, holds what a write
may not redo per request: no JSON encoder built per put, no object kept
per latency observation, no sort of the worker pool per async submit —
with the dispatches per op and the final clock pinned.
docs/architecture.md, "Hot-path rules", says what keeps them there.
"""

import dataclasses
import functools
import gc
import hashlib
import inspect
import json
import random

import repro.scheduler.transport.core
import repro.storage.dht
import repro.storage.kv
from repro.durability.plane import DurabilityConfig
from repro.federation import FederationConfig, PlacementPlanner, Zone
from repro.monitoring.plane import MetricsConfig
from repro.orchestrator.cluster import Cluster
from repro.orchestrator.pod import Pod
from repro.platform.gateway import HttpRequest
from repro.qos.plane import QosConfig
from repro.scheduler.plane import SchedulerConfig
from repro.sim.kernel import Environment, all_of

from tests.helpers import make_platform

ORDER_YAML = """
name: budget
classes:
  - name: Order
    keySpecs:
      - {name: total, type: INT, default: 0}
      - {name: note, type: STR, default: ""}
    functions:
      - {name: add, image: budget/add, provision: {minScale: 3}}
"""

OBJECTS = 40
CLIENTS = 8
SYNC_ADDS = 400
ASYNC_ADDS = 100

#: Per operation over the whole run (sync + async), except copies:
#: top-level document copies per *sync* add, write-behind flush included
#: — the load's copy out and the commit's copy in; the flush hands the
#: store the committed version itself (it copied once more before).
#: ``json_encodes`` counts encoder passes — ``json.dumps`` calls plus
#: calls of the DHT's module-level encoder, which sizes every put.
BUDGET = {"dispatches": 10.5, "md5": 1.0, "json_encodes": 1.0, "copies_per_sync_add": 2.0}


def add(ctx):
    ctx.state["total"] = ctx.state.get("total", 0) + ctx.payload.get("n", 1)
    return {"total": ctx.state["total"]}


class CallCounter:
    """Counts calls to a function (or, patched onto a class, a method)
    it stands in for."""

    def __init__(self, wrapped):
        self.wrapped = wrapped
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.wrapped(*args, **kwargs)

    def __get__(self, instance, owner=None):
        return self if instance is None else functools.partial(self, instance)


def counted(monkeypatch, owner, name):
    """Count calls to ``owner.name`` for the rest of the test."""
    counter = CallCounter(getattr(owner, name))
    monkeypatch.setattr(owner, name, counter)
    return counter


def draw_targets(rng, ids, count):
    """``count`` targets dealt round the clients.  Each client works its
    own slice of the objects: commits never conflict, so the counts are
    the path's and not the contention's."""
    slices = [ids[client::CLIENTS] for client in range(CLIENTS)]
    targets = [[] for _ in range(CLIENTS)]
    for index in range(count):
        targets[index % CLIENTS].append(rng.choice(slices[index % CLIENTS]))
    return targets


def counted_copies(monkeypatch):
    """Count top-level document copies: the modules' own names, so a
    recursive step inside the copier is not a copy, only a call from the
    DHT or the store is."""
    copies = CallCounter(repro.storage.dht.copy_doc)
    monkeypatch.setattr(repro.storage.dht, "copy_doc", copies)
    monkeypatch.setattr(repro.storage.kv, "copy_doc", copies)
    return copies


def run_workload(monkeypatch, seed=7):
    platform = make_platform(ORDER_YAML, {"budget/add": (add, 0.002)}, nodes=3, seed=seed)
    ids = [
        platform.new_object("Order", {"note": "x" * 64}, object_id=f"o-{index}")
        for index in range(OBJECTS)
    ]
    platform.flush()
    rng = random.Random(seed)
    sync_targets = draw_targets(rng, ids, SYNC_ADDS)
    async_targets = draw_targets(rng, ids, ASYNC_ADDS)
    env = platform.env

    md5 = CallCounter(hashlib.md5)
    dumps = CallCounter(json.dumps)
    encodes = CallCounter(repro.storage.dht._ENCODE_JSON)
    monkeypatch.setattr(hashlib, "md5", md5)
    monkeypatch.setattr(json, "dumps", dumps)
    monkeypatch.setattr(repro.storage.dht, "_ENCODE_JSON", encodes)
    copies = counted_copies(monkeypatch)
    profile = env.enable_profiling()
    dispatched = profile.total_dispatches
    acknowledged = []

    def sync_client(targets):
        for oid in targets:
            reply = yield platform.gateway.handle(
                HttpRequest("POST", f"/api/objects/{oid}/invokes/add", {"n": 1})
            )
            acknowledged.append(reply.status == 200)

    def async_client(targets):
        for oid in targets:
            result = yield platform.invoke_async(oid, "add", {"n": 1})
            acknowledged.append(result.ok)

    def run_clients(client, targets):
        env.run(until=all_of(env, [env.process(client(own)) for own in targets]))
        platform.flush()

    run_clients(sync_client, sync_targets)
    sync_copies = copies.calls
    run_clients(async_client, async_targets)
    ops = SYNC_ADDS + ASYNC_ADDS
    counts = {
        "dispatches": (profile.total_dispatches - dispatched) / ops,
        "md5": md5.calls / ops,
        "json_encodes": (dumps.calls + encodes.calls) / ops,
        "copies_per_sync_add": sync_copies / SYNC_ADDS,
    }
    monkeypatch.undo()
    totals = sum(platform.get_object(oid)["state"]["total"] for oid in ids)
    conflicts = platform.engine.cas_conflicts
    platform.shutdown()
    assert all(acknowledged) and len(acknowledged) == ops
    assert totals == ops  # every acknowledged add is in the object it addressed
    assert conflicts == 0
    return counts


def test_counts_per_operation_stay_within_budget(monkeypatch):
    counts = run_workload(monkeypatch)
    over = {name: (count, BUDGET[name]) for name, count in counts.items() if count > BUDGET[name]}
    assert not over, f"hot path over budget (count, budget): {over}; all counts: {counts}"


def test_counts_repeat_exactly(monkeypatch):
    assert run_workload(monkeypatch) == run_workload(monkeypatch)


# -- every plane on -------------------------------------------------------------

PLANES_YAML = """
name: budget
classes:
  - name: Order
    qos: {throughput: 1000000}
    constraint: {persistence: standard}
    keySpecs:
      - {name: total, type: INT, default: 0}
      - {name: note, type: STR, default: ""}
    functions:
      - {name: add, image: budget/add, provision: {minScale: 3}}
      - {name: peek, image: budget/peek, mutable: false, provision: {minScale: 3}}
"""

ZONES = (
    Zone("edge", tier="edge", parent="regional"),
    Zone("regional", tier="regional", parent="core"),
    Zone("core", tier="core"),
)
ZONE_RTT = (("edge", "regional", 0.004), ("regional", "core", 0.010), ("edge", "core", 0.020))
PEEKS = 400
WARMUP = 80

#: Exact for the seed, and equal to what the same script measured on the
#: commit before the planes were paid for (where ``replace`` ran twice
#: per gateway request, ``zone_of_node`` + ``region_of`` 7.1 times per
#: op and ``step`` once per dispatch): no event and no span was added
#: or removed.
PLANES_DISPATCHES_PER_OP = 9333 / 900
PLANES_SPANS_PER_OP = 6972 / 900
#: Top-level document copies: one per edge crossing — a load's copy out
#: per request, plus a commit's copy in per add.  Write-behind flushes,
#: snapshot cuts and miss loads copy nothing; the commit before they
#: stopped copying measured 1866 / 900 here.
PLANES_COPIES_PER_OP = 1400 / 900
#: The simulated clock after shutdown, recorded on the commit before the
#: two multi-datacenter models were collapsed into the cluster's one
#: topology: the 3-zone matrix charges every remote transfer, so any
#: change to a cross-zone delay's last bit moves this.
PLANES_FINAL_NOW = 2.701373468800037
#: The memos are filled during warm-up; a periodic plane (the snapshot
#: cut, a scrape) may still resolve a node now and then.
PLANES_BUDGET = {"replace": 0, "zone_lookups_per_op": 0.1, "step": 0}


def peek(ctx):
    return {"total": ctx.state.get("total", 0)}


def planes_platform(seed=7):
    """Every plane on, as ``benchmarks/perf`` configures ``sim-planes``."""
    return make_platform(
        PLANES_YAML,
        {"budget/add": (add, 0.002), "budget/peek": (peek, 0.002)},
        nodes=3,
        seed=seed,
        qos=QosConfig(enabled=True),
        durability=DurabilityConfig(
            enabled=True, default_interval_s=0.25, default_retention_s=2.0
        ),
        metrics=MetricsConfig(enabled=True, scrape_interval_s=0.25),
        tracing_enabled=True,
        events_enabled=True,
        scheduler=SchedulerConfig(enabled=True, transport="sim"),
        regions=tuple(zone.name for zone in ZONES),
        federation=FederationConfig(
            enabled=True, zones=ZONES, zone_rtt_s=ZONE_RTT, default_origin_zone="regional"
        ),
    )


def run_planes_workload(monkeypatch, seed=7):
    platform = planes_platform(seed)
    ids = [
        platform.new_object("Order", {"note": "x" * 64}, object_id=f"o-{index}")
        for index in range(OBJECTS)
    ]
    platform.flush()
    rng = random.Random(seed)
    env = platform.env
    acknowledged = []

    def sync_client(fn, payload):
        def client(targets):
            for oid in targets:
                reply = yield platform.gateway.handle(
                    HttpRequest("POST", f"/api/objects/{oid}/invokes/{fn}", payload)
                )
                acknowledged.append(reply.status == 200)

        return client

    def async_client(targets):
        for oid in targets:
            result = yield platform.invoke_async(oid, "add", {"n": 1})
            acknowledged.append(result.ok)

    def run_clients(client, targets):
        env.run(until=all_of(env, [env.process(client(own)) for own in targets]))
        platform.flush()

    run_clients(sync_client("add", {"n": 1}), draw_targets(rng, ids, WARMUP))  # fills the memos

    replaces = counted(monkeypatch, dataclasses, "replace")
    zone_lookups = counted(monkeypatch, PlacementPlanner, "zone_of_node")
    region_lookups = counted(monkeypatch, Cluster, "region_of")
    steps = counted(monkeypatch, Environment, "step")
    copies = counted_copies(monkeypatch)
    dispatched = env.profile.total_dispatches
    spans = len(platform.tracer)
    run_clients(sync_client("add", {"n": 1}), draw_targets(rng, ids, SYNC_ADDS))
    run_clients(sync_client("peek", {}), draw_targets(rng, ids, PEEKS))
    run_clients(async_client, draw_targets(rng, ids, ASYNC_ADDS))
    ops = SYNC_ADDS + PEEKS + ASYNC_ADDS
    counts = {
        "replace": replaces.calls,
        "zone_lookups_per_op": (zone_lookups.calls + region_lookups.calls) / ops,
        "step": steps.calls,
        "dispatches_per_op": (env.profile.total_dispatches - dispatched) / ops,
        "spans_per_op": (len(platform.tracer) - spans) / ops,
        "copies_per_op": copies.calls / ops,
    }
    monkeypatch.undo()
    adds = WARMUP + SYNC_ADDS + ASYNC_ADDS
    totals = sum(platform.get_object(oid)["state"]["total"] for oid in ids)
    conflicts = platform.engine.cas_conflicts
    platform.shutdown()
    counts["final_now"] = env.now
    assert all(acknowledged) and len(acknowledged) == WARMUP + ops
    assert totals == adds
    assert conflicts == 0
    return counts


def test_planes_spend_nothing_per_request_on_what_was_decided_before_it(monkeypatch):
    counts = run_planes_workload(monkeypatch)
    over = {
        name: (counts[name], budget)
        for name, budget in PLANES_BUDGET.items()
        if counts[name] > budget
    }
    assert not over, f"planes over budget (count, budget): {over}; all counts: {counts}"
    assert counts["dispatches_per_op"] == PLANES_DISPATCHES_PER_OP
    assert counts["spans_per_op"] == PLANES_SPANS_PER_OP
    assert counts["copies_per_op"] == PLANES_COPIES_PER_OP
    assert counts["final_now"] == PLANES_FINAL_NOW


def test_plane_counts_repeat_exactly(monkeypatch):
    assert run_planes_workload(monkeypatch) == run_planes_workload(monkeypatch)


# -- the read path ---------------------------------------------------------------

READ_YAML = """
name: budget
classes:
  - name: Order
    keySpecs:
      - {name: total, type: INT, default: 0}
      - {name: note, type: STR, default: ""}
    functions:
      - {name: peek, image: budget/peek, mutable: false, provision: {minScale: 3}}
"""

#: Exact for the seed, and equal to what the same script measured on the
#: commit before the read path decided its deploy-time facts once (where
#: a peek made 13 directory calls, views through ``runtime`` included,
#: 7.05 pod-state reads and one ``isgeneratorfunction``): no event was
#: added, removed or moved.
READ_DISPATCHES_PER_OP = 3227 / 400
READ_FINAL_NOW = 2.0127508919999957
#: Per peek: calls into the class-runtime directory (the runtime and its
#: one-line views), ``Pod.is_ready`` + ``Pod.in_flight`` reads, and
#: handler-kind checks.
READ_BUDGET = {"directory_calls": 3, "pod_reads": 1.1, "isgeneratorfunction": 0}
DIRECTORY_METHODS = ("runtime", "resolved", "dht_for", "policy_for", "deployed_classes")


def counted_property(monkeypatch, owner, name):
    """Count reads of the property ``owner.name``."""
    counter = CallCounter(getattr(owner, name).fget)
    monkeypatch.setattr(owner, name, property(counter))
    return counter


def run_read_workload(monkeypatch, seed=7):
    platform = make_platform(READ_YAML, {"budget/peek": (peek, 0.002)}, nodes=3, seed=seed)
    ids = [
        platform.new_object("Order", {"note": "x" * 64}, object_id=f"o-{index}")
        for index in range(OBJECTS)
    ]
    platform.flush()
    rng = random.Random(seed)
    targets = draw_targets(rng, ids, PEEKS)
    env = platform.env
    acknowledged = []

    directory = [counted(monkeypatch, platform.crm, name) for name in DIRECTORY_METHODS]
    pod_reads = [
        counted_property(monkeypatch, Pod, name) for name in ("is_ready", "in_flight")
    ]
    generator_checks = counted(monkeypatch, inspect, "isgeneratorfunction")
    profile = env.enable_profiling()
    dispatched = profile.total_dispatches

    def client(own):
        for oid in own:
            reply = yield platform.gateway.handle(
                HttpRequest("POST", f"/api/objects/{oid}/invokes/peek", {})
            )
            acknowledged.append(reply.status == 200)

    env.run(until=all_of(env, [env.process(client(own)) for own in targets]))
    counts = {
        "directory_calls": sum(counter.calls for counter in directory) / PEEKS,
        "pod_reads": sum(counter.calls for counter in pod_reads) / PEEKS,
        "isgeneratorfunction": generator_checks.calls / PEEKS,
        "dispatches_per_op": (profile.total_dispatches - dispatched) / PEEKS,
    }
    monkeypatch.undo()
    platform.shutdown()
    counts["final_now"] = env.now
    assert all(acknowledged) and len(acknowledged) == PEEKS
    return counts


def test_reads_look_nothing_up_per_request_that_was_decided_at_deploy(monkeypatch):
    counts = run_read_workload(monkeypatch)
    over = {
        name: (counts[name], budget)
        for name, budget in READ_BUDGET.items()
        if counts[name] > budget
    }
    assert not over, f"read path over budget (count, budget): {over}; all counts: {counts}"
    assert counts["dispatches_per_op"] == READ_DISPATCHES_PER_OP
    assert counts["final_now"] == READ_FINAL_NOW


# -- the write path ---------------------------------------------------------------

#: Exact for the seed, and equal to what the same script measured on the
#: commit before the write path decided its per-request facts once
#: (where each put built a ``JSONEncoder``, each observation was an
#: object in a deque and each async submit sorted the worker pool): no
#: event was added, removed or moved.
WRITE_DISPATCHES_PER_OP = 5103 / 500
WRITE_FINAL_NOW = 2.2189624680000155
#: Per put: JSON encoders built; per latency observation: objects the
#: class's window holds; per async submit: sorts of the worker pool.
WRITE_BUDGET = {"encoders_per_put": 0, "objects_per_observation": 0, "sorts_per_submit": 0}


def objects_held(window):
    """Python objects the window's attributes hold (types aside): one
    per row for rows kept as objects, none for rows kept in columns."""
    return sum(
        not isinstance(referent, type)
        for value in vars(window).values()
        for referent in gc.get_referents(value)
    )


def run_write_workload(monkeypatch, seed=7):
    platform = make_platform(ORDER_YAML, {"budget/add": (add, 0.002)}, nodes=3, seed=seed)
    ids = [
        platform.new_object("Order", {"note": "x" * 64}, object_id=f"o-{index}")
        for index in range(OBJECTS)
    ]
    platform.flush()
    rng = random.Random(seed)
    env = platform.env
    dht = platform.crm.runtime("Order").dht
    window = platform.monitoring.for_class("Order").window
    acknowledged = []

    def sync_client(targets):
        for oid in targets:
            reply = yield platform.gateway.handle(
                HttpRequest("POST", f"/api/objects/{oid}/invokes/add", {"n": 1})
            )
            acknowledged.append(reply.status == 200)

    def async_client(targets):
        for oid in targets:
            result = yield platform.invoke_async(oid, "add", {"n": 1})
            acknowledged.append(result.ok)

    def run_clients(client, targets):
        env.run(until=all_of(env, [env.process(client(own)) for own in targets]))
        platform.flush()

    # Warm: every client has sent both kinds once, so the worker pool's
    # eligible ports are known.
    run_clients(sync_client, draw_targets(rng, ids, CLIENTS))
    run_clients(async_client, draw_targets(rng, ids, CLIENTS))

    encoders = counted(monkeypatch, json.JSONEncoder, "__init__")
    sorts = CallCounter(sorted)
    # ``sorted`` as the dispatch core's module sees it.
    monkeypatch.setattr(repro.scheduler.transport.core, "sorted", sorts, raising=False)
    profile = env.enable_profiling()
    dispatched = profile.total_dispatches
    puts, observed = dht.puts, len(window)
    run_clients(sync_client, draw_targets(rng, ids, SYNC_ADDS))
    run_clients(async_client, draw_targets(rng, ids, ASYNC_ADDS))
    ops = SYNC_ADDS + ASYNC_ADDS
    counts = {
        "encoders_per_put": encoders.calls / (dht.puts - puts),
        "objects_per_observation": objects_held(window) / (len(window) - observed),
        "sorts_per_submit": sorts.calls / ASYNC_ADDS,
        "dispatches_per_op": (profile.total_dispatches - dispatched) / ops,
    }
    monkeypatch.undo()
    totals = sum(platform.get_object(oid)["state"]["total"] for oid in ids)
    platform.shutdown()
    counts["final_now"] = env.now
    assert all(acknowledged) and len(acknowledged) == 2 * CLIENTS + ops
    assert totals == 2 * CLIENTS + ops
    return counts


def test_writes_redo_nothing_per_request_that_was_decided_before_it(monkeypatch):
    counts = run_write_workload(monkeypatch)
    over = {
        name: (counts[name], budget)
        for name, budget in WRITE_BUDGET.items()
        if counts[name] > budget
    }
    assert not over, f"write path over budget (count, budget): {over}; all counts: {counts}"
    assert counts["dispatches_per_op"] == WRITE_DISPATCHES_PER_OP
    assert counts["final_now"] == WRITE_FINAL_NOW
