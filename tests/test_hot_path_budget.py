"""The hot path's budget, in counts.

An invocation is three steps — load the object's state, offload state +
input to a pure function, commit through write-behind.  What the
simulator spends on them is held here as exact, seeded counts (they
repeat to the last unit, so nothing is timed): kernel dispatches, md5
hashes, ``json.dumps`` calls and document copies per operation, on a
three-node platform with every plane off.  docs/architecture.md,
"Hot-path rules", says what keeps them there.
"""

import hashlib
import json
import random

import repro.storage.dht
import repro.storage.kv
from repro.platform.gateway import HttpRequest
from repro.sim.kernel import all_of

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
#: top-level document copies per *sync* add, write-behind flush included.
BUDGET = {"dispatches": 10.5, "md5": 1.0, "json_dumps": 1.0, "copies_per_sync_add": 3.0}


def add(ctx):
    ctx.state["total"] = ctx.state.get("total", 0) + ctx.payload.get("n", 1)
    return {"total": ctx.state["total"]}


class CallCounter:
    """Counts calls to a function it stands in for."""

    def __init__(self, wrapped):
        self.wrapped = wrapped
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.wrapped(*args, **kwargs)


def run_workload(monkeypatch, seed=7):
    platform = make_platform(ORDER_YAML, {"budget/add": (add, 0.002)}, nodes=3, seed=seed)
    ids = [
        platform.new_object("Order", {"note": "x" * 64}, object_id=f"o-{index}")
        for index in range(OBJECTS)
    ]
    platform.flush()
    # Each client works its own slice of the objects: commits never
    # conflict, so the counts are the path's and not the contention's.
    rng = random.Random(seed)
    slices = [ids[client::CLIENTS] for client in range(CLIENTS)]

    def draw(count):
        targets = [[] for _ in range(CLIENTS)]
        for index in range(count):
            targets[index % CLIENTS].append(rng.choice(slices[index % CLIENTS]))
        return targets

    sync_targets, async_targets = draw(SYNC_ADDS), draw(ASYNC_ADDS)
    env = platform.env

    md5 = CallCounter(hashlib.md5)
    dumps = CallCounter(json.dumps)
    # The modules' own names: a recursive step inside the copier is not
    # a top-level copy, only a call from the DHT or the store is.
    copies = CallCounter(repro.storage.dht.copy_doc)
    monkeypatch.setattr(hashlib, "md5", md5)
    monkeypatch.setattr(json, "dumps", dumps)
    monkeypatch.setattr(repro.storage.dht, "copy_doc", copies)
    monkeypatch.setattr(repro.storage.kv, "copy_doc", copies)
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
        "json_dumps": dumps.calls / ops,
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
