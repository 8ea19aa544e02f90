"""The control plane's retention budget, in counts.

A server that can stay up keeps, per request, nothing: the ledger, the
result map, the event log and the snapshot manifests are caches of what
the store or the ledger already settled, each with a bound
(docs/architecture.md, "Retention rules").  Held here the way
``tests/test_hot_path_budget.py`` and ``tests/test_real_path_budget.py``
hold the hot paths — bytes and entries counted, nothing timed:

* the real path (``serve_http`` + a SQLite file + the durability plane's
  default configuration) retains at most 300 B per request, and no more
  in the second half of a run than in the first; with a finite
  ``retention_s`` the second half retains nothing;
* the ``sim-write`` shape (sync commits + 20 % through the async queue)
  retains at most 60 B per operation;
* a snapshot cut serialises and copies index entries in proportion to
  what it dirtied, whatever the number of resident objects, and its GC
  reads no index entry at all;
* a created and flushed object is held once: the DHT and the dict
  engine share one version of it;
* a retained event-log entry is a row of its values, not an object with
  a dict of its own;
* a retained span is a row too, and a scraped point is two doubles in
  the columns of its series.
"""

import asyncio
import gc
import json
import random
import tracemalloc
from collections import deque
from types import SimpleNamespace

import repro.durability.snapshot
from repro.crm.optimizer import RequirementOptimizer
from repro.durability.plane import DurabilityConfig, DurabilityPlane
from repro.monitoring.collector import MonitoringSystem
from repro.monitoring.events import EventLog
from repro.monitoring.metrics import MetricsRegistry
from repro.monitoring.scraper import MetricsScraper
from repro.monitoring.slo import SloEvaluator
from repro.monitoring.tracing import Tracer
from repro.plane import Plane
from repro.platform.gateway import HttpRequest
from repro.scheduler.ledger import COMPLETION_HORIZON
from repro.scheduler.plane import SchedulerConfig
from repro.scheduler.transport.aio import EVENT_CAPACITY
from repro.sim.kernel import all_of
from repro.storage.backends import StorageConfig

from tests.helpers import make_platform, run_async
from tests.test_metrics_plane import _runtime
from tests.test_real_path_budget import QUIET, KeepAlive

ORDER_YAML = """
name: budget
classes:
  - name: Order
    constraint: {persistence: %s}
    keySpecs:
      - {name: total, type: INT, default: 0}
      - {name: note, type: STR, default: ""}
    functions:
      - {name: add, image: budget/add, provision: {minScale: 3}}
      - {name: peek, image: budget/peek, mutable: false, provision: {minScale: 3}}
"""

#: Retained bytes per operation.  The parent of this budget held ≈ 3 800
#: on the real path by this measure and 313 on the ``sim-write`` shape.
REAL_PATH_BUDGET = 300.0
SIM_WRITE_BUDGET = 60.0
#: "Retains nothing", allowing for allocator-level noise (a dict that
#: resized, a deque block) over a half of ``HALF`` operations.
FLAT = 25.0


def add(ctx):
    ctx.state["total"] = ctx.state.get("total", 0) + ctx.payload.get("n", 1)
    return {"total": ctx.state["total"]}


def peek(ctx):
    return {"total": ctx.state.get("total", 0)}


HANDLERS = {"budget/add": (add, 0.002), "budget/peek": (peek, 0.002)}


def traced_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def shrink_monitors(platform):
    """The class's latency window (30 simulated seconds) and reservoir
    (10 000 samples) are bounded already, but by more traffic than a
    test's warm-up: shrunk, so that they too are full — and evicting —
    before anything is measured."""
    observations = platform.monitoring.for_class("Order")
    observations.window.window_s = 0.5
    observations.latency.max_samples = 256


# -- (i) the real path ------------------------------------------------------

REAL_OBJECTS = 120
CONNECTIONS = 2
#: Past every horizon (each request is one completion and two events),
#: so a bounded structure is full — and evicting — before the first half.
REAL_WARMUP = max(COMPLETION_HORIZON, EVENT_CAPACITY // 2) + 76
REAL_HALF = 700


def real_path_halves(tmp_path, retention_s):
    """Retained bytes per request over two equal halves of adds, peeks
    and indexed queries (the benchmark's ``http-sqlite`` mix) against a
    real front, after a warm-up."""
    platform = make_platform(
        ORDER_YAML % "strong",
        HANDLERS,
        nodes=3,
        seed=7,
        storage=StorageConfig("sqlite", str(tmp_path / "retention.db")),
        durability=DurabilityConfig(enabled=True, default_retention_s=retention_s),
        scheduler=SchedulerConfig(enabled=True, transport="asyncio", pool_size=2, **QUIET),
    )
    ids = [
        platform.new_object("Order", {"total": index % 100, "note": "x" * 64}, object_id=f"o-{index}")
        for index in range(REAL_OBJECTS)
    ]
    platform.flush()
    shrink_monitors(platform)

    async def scenario():
        front = await platform.serve_http()
        connections = [
            KeepAlive(*await asyncio.open_connection(front.host, front.port))
            for _ in range(CONNECTIONS)
        ]

        async def client(connection, own, count, rng):
            for _ in range(count):
                draw = rng.random()
                if draw < 0.1:
                    status, body = await connection.request(
                        "GET", "/api/classes/Order/objects?where=total%3E%3D40&order=total&limit=10"
                    )
                    assert status == 200 and len(body["objects"]) == 10
                else:
                    fn = "add" if draw < 0.55 else "peek"
                    status, body = await connection.request(
                        "POST", f"/api/objects/{rng.choice(own)}/invokes/{fn}", {"n": 1}
                    )
                    assert status == 200 and "total" in body

        async def phase(count, seed):
            await asyncio.gather(
                *(
                    client(connection, ids[n::CONNECTIONS], count // CONNECTIONS, random.Random(seed + n))
                    for n, connection in enumerate(connections)
                )
            )
            return traced_bytes()

        # Traced from the start: a block allocated before tracing began
        # would be freed unseen, and its replacement read as growth.
        tracemalloc.start()
        try:
            marks = [await phase(REAL_WARMUP, 1), await phase(REAL_HALF, 2), await phase(REAL_HALF, 3)]
        finally:
            tracemalloc.stop()
        stats = front.scheduler.stats()
        for connection in connections:
            connection.writer.close()
        await front.stop()
        return marks, stats

    marks, stats = run_async(scenario())
    tracker = platform.durability.tracker_for("Order")
    platform.shutdown()
    halves = [(marks[1] - marks[0]) / REAL_HALF, (marks[2] - marks[1]) / REAL_HALF]
    return halves, stats, tracker


def test_real_path_retains_under_300_bytes_a_request_and_no_more_later(tmp_path):
    (first, second), stats, tracker = real_path_halves(tmp_path, retention_s=None)
    assert stats["ledger"]["outstanding"] == 0
    assert stats["retained_completions"] == COMPLETION_HORIZON
    assert stats["events_dropped"] > 0  # the log wrapped, and says so
    # What is left is what ``retention_s=None`` asks to keep: every
    # generation's data blob and (delta) manifest.
    assert tracker.cuts_taken > 10
    assert 0 <= first <= REAL_PATH_BUDGET, (first, second)
    assert second <= REAL_PATH_BUDGET and second <= first * 1.1 + FLAT, (first, second)


def test_real_path_with_finite_retention_is_flat(tmp_path):
    (first, second), _, tracker = real_path_halves(tmp_path, retention_s=1.0)
    assert tracker.gc_generations > 0
    assert abs(second) <= FLAT, (first, second)


# -- (ii) the sim-write shape -------------------------------------------------

SIM_OBJECTS = 40
CLIENTS = 8
SIM_HALF = 1500  # operations: 80 % sync adds, 20 % through the async queue


def test_sim_write_shape_retains_under_60_bytes_an_operation():
    platform = make_platform(ORDER_YAML % "standard", HANDLERS, nodes=3, seed=7)
    ids = [
        platform.new_object("Order", {"note": "x" * 64}, object_id=f"o-{index}")
        for index in range(SIM_OBJECTS)
    ]
    platform.flush()
    shrink_monitors(platform)
    env = platform.env
    refused = 0

    def client(own, count, async_every, rng):
        # Each client works its own slice of the objects: no conflicts.
        nonlocal refused
        for index in range(count):
            oid = rng.choice(own)
            if index % async_every == 0:
                result = yield platform.invoke_async(oid, "add", {"n": 1})
                refused += not result.ok
            else:
                reply = yield platform.gateway.handle(
                    HttpRequest("POST", f"/api/objects/{oid}/invokes/add", {"n": 1})
                )
                refused += reply.status != 200

    def phase(ops, async_every, seed):
        env.run(
            until=all_of(
                env,
                [
                    env.process(
                        client(ids[n::CLIENTS], ops // CLIENTS, async_every, random.Random(seed + n))
                    )
                    for n in range(CLIENTS)
                ],
            )
        )
        platform.flush()
        return traced_bytes()

    tracemalloc.start()
    try:
        # The warm-up starts all async, to put the ledger and the result
        # map past their horizon before the first half.
        phase(COMPLETION_HORIZON + 80, 1, 0)
        marks = [phase(SIM_HALF, 5, seed) for seed in (1, 2, 3)]
    finally:
        tracemalloc.stop()
    queue = platform.queue
    retained = (queue.core.ledger.retained_completions, len(queue.results))
    audit = queue.core.ledger.audit()
    platform.shutdown()
    assert refused == 0
    assert retained == (COMPLETION_HORIZON, COMPLETION_HORIZON)
    assert audit["accepted"] == audit["completed"] and audit["outstanding"] == 0
    halves = [(marks[1] - marks[0]) / SIM_HALF, (marks[2] - marks[1]) / SIM_HALF]
    assert all(abs(half) <= SIM_WRITE_BUDGET for half in halves), halves


# -- (iii) what a cut costs, in index entries ---------------------------------

DIRTY = 10  # objects written before every cut, the same ones at every size
CUTS = 24


class CountedIndex(dict):
    """A live index that counts the entries handed out by every whole
    traversal (a copy, an iteration, ``values()``); keyed access is free."""

    touched = 0

    def _count(self):
        self.touched += len(self)

    def __iter__(self):
        self._count()
        return super().__iter__()

    def keys(self):
        self._count()
        return super().keys()

    def values(self):
        self._count()
        return super().values()

    def items(self):
        self._count()
        return super().items()

    def copy(self):
        self._count()
        return super().copy()


def cut_costs(monkeypatch, residents):
    """Index entries serialised + copied by each of ``CUTS`` cuts that
    follow ``DIRTY`` writes and one delete, and the entries GC read."""
    platform = make_platform(
        ORDER_YAML % "standard",
        HANDLERS,
        nodes=3,
        seed=7,
        durability=DurabilityConfig(
            enabled=True, default_interval_s=1000.0, default_retention_s=2.0
        ),
    )
    ids = [platform.new_object("Order", object_id=f"o-{index}") for index in range(residents)]
    tracker = platform.durability.tracker_for("Order")
    coordinator = platform.durability._coordinator("Order")
    platform.run(coordinator.cut())  # the first cut is a checkpoint of everything
    tracker.index = index = CountedIndex(tracker.index)

    serialised = 0
    dumps = json.dumps

    def counted_dumps(obj, *args, **kwargs):
        nonlocal serialised
        if isinstance(obj, dict) and "index" in obj:
            serialised += len(obj["index"])
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(repro.durability.snapshot.json, "dumps", counted_dumps)
    gc_touched = 0
    collect = coordinator._gc

    def counted_gc():
        nonlocal gc_touched
        before = index.touched
        collect()
        gc_touched += index.touched - before

    monkeypatch.setattr(coordinator, "_gc", counted_gc)
    costs, kinds = [], []
    for round_ in range(CUTS):
        for oid in ids[:DIRTY]:
            platform.invoke(oid, "add")
        platform.delete_object(ids[DIRTY + round_])
        platform.advance(1.0)  # generations age out: GC has work to do
        before = serialised + index.touched
        platform.run(coordinator.cut())
        costs.append(serialised + index.touched - before - gc_touched)
        kinds.append(tracker.generations[-1]["kind"])
    monkeypatch.undo()
    assert tracker.index is index  # updated in place, never replaced
    assert len(index) == residents - CUTS
    platform.shutdown()
    return costs, kinds, gc_touched, tracker.gc_generations


def test_cut_cost_follows_the_dirty_set_not_the_resident_count(monkeypatch):
    small, small_kinds, small_gc, small_deleted = cut_costs(monkeypatch, 200)
    large, large_kinds, large_gc, _ = cut_costs(monkeypatch, 2000)
    # GC reads counts kept per generation — also when it has work to do:
    # the deltas behind a checkpoint go once nothing young chains on them.
    assert small_gc == large_gc == 0 and small_deleted > 0
    # A delta cut serialises the entries it changed, and copies none.
    assert set(large_kinds) == {"delta"} and large == [DIRTY] * CUTS
    # Ten times fewer residents, the same dirty set: the same cost, cut
    # for cut — until the deltas hold as many entries as the index and a
    # checkpoint (a copy + a serialisation of it) is due, which over any
    # run costs at most twice what the deltas before it did.
    checkpoint = small_kinds.index("full")
    assert small[:checkpoint] == large[:checkpoint] and checkpoint >= 15
    assert small_kinds.count("full") == 1
    assert sum(small) <= 3 * CUTS * (DIRTY + 1)


# -- (iv) what a committed object and a retained event cost, in bytes --------

#: Traced bytes per created and flushed object on the ``sim-write`` shape
#: (dict engine, write-behind, every plane off).  The commit before the
#: store kept the tier's version instead of a copy of its own measured
#: 1 168 by this measure; this one measures 736.
OBJECT_BYTES = 760.0
CREATED = 2000


def test_a_committed_object_is_held_once():
    platform = make_platform(ORDER_YAML % "standard", HANDLERS, nodes=3, seed=7)
    # Warmed up, so the per-class and per-node structures exist already.
    platform.new_object("Order", {"note": "x" * 64}, object_id="warm")
    platform.flush()
    tracemalloc.start()
    try:
        before = traced_bytes()
        for index in range(CREATED):
            platform.new_object("Order", {"note": "x" * 64}, object_id=f"o-{index}")
        platform.flush()
        held = (traced_bytes() - before) / CREATED
    finally:
        tracemalloc.stop()
    store = platform.store
    dht = platform.crm.runtime("Order").dht
    shared = all(
        store.backend.get(dht.collection, f"o-{index}") is dht.current(f"o-{index}")
        for index in range(CREATED)
    )
    platform.shutdown()
    assert store.count(dht.collection) == CREATED + 1
    assert shared  # the engine keeps the very version memory holds
    assert held <= OBJECT_BYTES, held


#: Traced bytes per retained entry of a full log, events shaped like
#: ``scheduler.dispatch``.  The commit before the log kept rows measured
#: 342 (a ``PlatformEvent`` and its own kwargs dict each); this one
#: measures 160.
EVENT_BYTES = 170.0
RECORDED = 5000


class Clock:
    now = 0.0


def test_a_retained_event_is_a_row():
    clock = Clock()
    log = EventLog(clock, enabled=True, capacity=RECORDED)
    # Names the platform already holds, as an emitter passes them.
    workers = [f"worker-{n}" for n in range(4)]
    objects = [f"o-{n}" for n in range(40)]
    tracemalloc.start()
    try:
        before = traced_bytes()
        for index in range(RECORDED):
            clock.now = index * 0.001
            log.record(
                "scheduler.dispatch",
                worker=workers[index % 4],
                request=index + 1000,
                object=objects[index % 40],
                fn="add",
            )
        held = (traced_bytes() - before) / RECORDED
    finally:
        tracemalloc.stop()
    events = log.events()
    assert len(events) == RECORDED and events[-1].seq == RECORDED
    assert events[7].fields == {"worker": "worker-3", "request": 1007, "object": "o-7", "fn": "add"}
    assert held <= EVENT_BYTES, held


#: Traced bytes per retained span, spans shaped like one traced write's
#: (gateway, invoke, load, offload, execute, commit).  The commit before
#: the tracer kept rows measured ≈ 370 (a ``Span`` and its own ``attrs``
#: dict each); rows measure ≈ 150.
SPAN_BYTES = 200.0
TRACED_REQUESTS = 1000


def test_a_retained_span_is_a_row():
    clock = Clock()
    tracer = Tracer(clock, enabled=True, capacity=6 * TRACED_REQUESTS)
    # Names the platform already holds, as the engine passes them.
    nodes = [f"vm-{n}" for n in range(3)]
    objects = [f"Order~o-{n}" for n in range(40)]
    fn, service = "add", "Order.add"
    tracemalloc.start()
    try:
        before = traced_bytes()
        for index in range(TRACED_REQUESTS):
            clock.now = index * 0.01
            trace_id = f"req-{index}"  # a request id: the trace holds it
            obj, node = objects[index % 40], nodes[index % 3]
            gateway = tracer.start(
                trace_id, "gateway POST /api/objects/{oid}/invokes/{fn}", object_id=obj
            )
            invoke = tracer.start(trace_id, f"invoke {fn}", parent=gateway, object_id=obj)
            load = tracer.start(trace_id, "state.load", parent=invoke, node=node)
            clock.now += 0.0001
            tracer.finish(load, hit=True, owner=node)
            offload = tracer.start(trace_id, f"task.offload {service}", parent=invoke)
            execute = tracer.start(
                trace_id, f"faas.execute {service}", parent=offload, pod="kn-1", node=node
            )
            clock.now += 0.002
            tracer.finish(execute, ok=True)
            tracer.finish(offload, ok=True)
            commit = tracer.start(trace_id, "state.commit", parent=invoke)
            clock.now += 0.0001
            tracer.finish(commit, ok=True)
            tracer.finish(invoke, ok=True, cls="Order", retries=0)
            tracer.finish(gateway, status=200)
        held = (traced_bytes() - before) / len(tracer)
    finally:
        tracemalloc.stop()
    spans = tracer.trace("req-7")
    assert [span.name for span in spans] == [
        "gateway POST /api/objects/{oid}/invokes/{fn}",
        "invoke add",
        "state.load",
        "task.offload Order.add",
        "faas.execute Order.add",
        "state.commit",
    ]
    assert spans[1].attrs == {"object_id": "Order~o-7", "ok": True, "cls": "Order", "retries": 0}
    assert spans[2].attrs == {"node": "vm-1", "hit": True, "owner": "vm-1"}
    assert spans[2].parent_id == spans[1].span_id == spans[0].span_id + 1
    assert abs(spans[4].duration_s - 0.002) < 1e-12
    assert held <= SPAN_BYTES, held


#: Traced bytes per scraped point of a series.  The commit before the
#: series kept columns measured ≈ 88 (an ``(at, value)`` tuple and a
#: boxed value each); two doubles measure ≈ 18.
POINT_BYTES = 32.0
SCRAPED_SERIES = 50
SCRAPES = 200


def test_a_scraped_point_is_two_doubles():
    clock = Clock()
    registry = MetricsRegistry()
    gauges = [registry.gauge("queue.depth", {"worker": f"w-{n}"}) for n in range(SCRAPED_SERIES)]
    scraper = MetricsScraper(clock, registry, interval_s=0.25)
    for scrape in range(2):  # every series exists before anything is measured
        clock.now = scrape * 0.25
        scraper.scrape_once()
    tracemalloc.start()
    try:
        before = traced_bytes()
        for scrape in range(2, SCRAPES + 2):
            clock.now = scrape * 0.25
            for n, gauge in enumerate(gauges):
                gauge.set(scrape * 1.5 + n)
            scraper.scrape_once()
        held = (traced_bytes() - before) / (SCRAPED_SERIES * SCRAPES)
    finally:
        tracemalloc.stop()
    series = scraper.series("queue.depth", {"worker": "w-3"})
    assert len(series) == SCRAPES + 2
    assert series.points()[-1] == ((SCRAPES + 1) * 0.25, (SCRAPES + 1) * 1.5 + 3)
    assert series.latest == (SCRAPES + 1) * 1.5 + 3
    assert held <= POINT_BYTES, held


# -- (v) what a flapping alert and a busy optimizer keep -----------------------

#: Alert / decision cycles in each half of the churn: past the 64 each
#: history keeps, so both are full — and dropping their oldest — all
#: along.
CHURN = 256


def test_alert_and_decision_history_do_not_grow_with_uptime():
    """An SLO point alert that fires and resolves, and an optimizer
    decision, K times and then K more: the second K retains nothing and
    leaves each history as long as the first did.  Without the bound
    every cycle kept its ``SloAlert`` and ``OptimizerDecision``."""
    clock = Clock()
    tracker = SimpleNamespace(recoveries=0, last_recovery=None)

    class Durability(Plane):
        name = "durability"
        _policies = {"C": SimpleNamespace(enabled=True, rpo_budget_s=0.1)}
        _trackers = {"C": tracker}
        verdicts = DurabilityPlane.verdicts

    evaluator = SloEvaluator(clock, MonitoringSystem(clock))
    evaluator.planes = {"durability": Durability()}
    evaluator.watch_class("C", _runtime())
    for _row, series in evaluator._objectives:
        series._points = deque(maxlen=8)  # bounded already, but by 4 096 recoveries
    unbudgeted = SimpleNamespace(nfr=SimpleNamespace(constraint=SimpleNamespace(budget_usd_per_month=None)))
    optimizer = RequirementOptimizer(
        clock,
        SimpleNamespace(resolved=lambda cls: unbudgeted),
        SimpleNamespace(slo=evaluator, scraper=SimpleNamespace(on_scrape=[])),
    )
    service = SimpleNamespace(name="C.work", replicas=1, min_scale=1)
    service.set_floor = lambda floor: setattr(service, "replicas", floor) or setattr(
        service, "min_scale", floor
    )

    def churn(cycles):
        for _ in range(cycles):
            clock.now += 1.0
            tracker.recoveries += 1
            tracker.last_recovery = {"rpo_s": 0.5, "rto_s": 0.7, "lost_writes": 3, "node": "vm-0"}
            evaluator.evaluate()
            floor = 3 - service.replicas
            optimizer._move_floor("C", service, floor, "scale-up" if floor > 1 else "scale-down", "churn")

    churn(2 * CHURN)  # both histories full before anything is measured
    tracemalloc.start()
    try:
        start = traced_bytes()
        churn(CHURN)
        at_k, lengths_at_k = traced_bytes(), (len(evaluator.alerts), len(optimizer.decisions))
        churn(CHURN)
        at_2k, lengths_at_2k = traced_bytes(), (len(evaluator.alerts), len(optimizer.decisions))
    finally:
        tracemalloc.stop()
    assert lengths_at_2k == lengths_at_k, (lengths_at_k, lengths_at_2k)
    assert (at_2k - at_k) / CHURN <= FLAT, (at_k - start, at_2k - at_k)
    assert (evaluator.alerts_total, optimizer.decisions_total) == (4 * CHURN, 4 * CHURN)
