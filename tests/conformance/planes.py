"""Byte-identity dump of one seeded script with every plane on.

    PYTHONPATH=<a commit's src> python -m tests.conformance.planes <file>

Writes everything an observer outside the platform can see of the run:
every span (ids, names, times, parents, attributes *in insertion
order*), every event, the federation and QoS reports, the flat snapshot
and the kernel's dispatch counts.  Run from one checkout against two
commits' ``src`` trees, the two files must be identical when a change
claims to have altered no observable behaviour (``dump.py`` beside this
is the same instrument for the scheduler scenarios).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from repro.platform.gateway import HttpRequest
from repro.sim.kernel import all_of

from tests.test_hot_path_budget import planes_platform

OBJECTS = 24
CLIENTS = 6
OPS = 360


def observe(seed: int = 7) -> dict:
    platform = planes_platform(seed)
    env = platform.env
    ids = [
        platform.new_object("Order", {"note": "x" * 16}, object_id=f"o-{index}")
        for index in range(OBJECTS)
    ]
    platform.flush()
    rng = random.Random(seed)
    statuses: list = []

    def client(number):
        for _ in range(OPS // CLIENTS):
            oid, kind = rng.choice(ids[number::CLIENTS]), rng.random()
            if kind < 0.1:
                statuses.append((yield platform.invoke_async(oid, "add", {"n": 1})).ok)
                continue
            fn, origin = ("peek", "edge") if kind < 0.6 else ("add", "core")
            headers = {"x-origin-zone": origin} if kind < 0.3 or kind > 0.9 else {}
            reply = yield platform.gateway.handle(
                HttpRequest("POST", f"/api/objects/{oid}/invokes/{fn}", {"n": 1}, headers)
            )
            statuses.append(reply.status)

    def drive():
        env.run(until=all_of(env, [env.process(client(n)) for n in range(CLIENTS)]))

    drive()
    platform.migrate_object(ids[0], "core", cls="Order")
    platform.fail_node("vm-1")
    platform.add_node("vm-1", region="edge")
    drive()
    platform.flush()
    observed = {
        "statuses": statuses,
        "spans": [
            [s.trace_id, s.span_id, s.name, s.start, s.end, s.parent_id, list(s.attrs.items())]
            for s in platform.tracer.spans()
        ],
        "events": [event.to_dict() for event in platform.events.events()],
        "federation": platform.report("federation"),
        "qos": platform.report("qos"),
        # Wall-clock readings are the one thing two runs may differ in.
        "snapshot": {
            key: value
            for key, value in platform.snapshot().items()
            if not key.startswith("kernel.dispatches.seconds")
        },
        "dispatch_count": env.profile.dispatch_count,
        "now": platform.now,
    }
    platform.shutdown()
    return observed


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python -m tests.conformance.planes <file>")
    Path(sys.argv[1]).write_text(json.dumps(observe(), indent=1, default=str) + "\n")
    print(f"wrote the planes-on observation to {sys.argv[1]}")
