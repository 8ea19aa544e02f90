"""The plane seam, tested once for every plane instead of once per plane.

Two halves:

* **The contract** — parametrised over the five config planes.  A
  disabled plane is *absent*: not in ``platform.planes``, alias ``None``,
  empty ``report(name)``, no snapshot key, no report section, and each
  of its REST routes answers the baseline 404 ``NoRouteError``.  An
  enabled plane is *present*: registered under its ``name``, adding
  exactly one snapshot key per number of its ``stats()`` (named by
  :func:`repro.render.numbers`) without touching a baseline one, owning
  its routes, JSON-serialisable.
* **The pairwise matrix** — every pair of planes plus all five at once
  (11 configs) under one seeded Listing-1 workload with sync and async
  writers and a node crash, asserting the platform's invariants
  (acknowledged writes visible exactly once, versions monotone, the
  async drain conserved, one report section per enabled plane) and a
  byte-identical second run.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro.durability.plane import DurabilityConfig
from repro.federation import FederationConfig, Zone
from repro.monitoring.metrics import label_key, render_series_name
from repro.monitoring.plane import MetricsConfig
from repro.plane import Plane
from repro.qos.plane import QosConfig
from repro.render import numbers
from repro.scheduler.plane import SchedulerConfig

from tests.helpers import LISTING1_YAML, make_platform

ZONES = (
    Zone("edge-a", tier="edge", parent="region-a"),
    Zone("region-a", tier="regional", parent="core"),
    Zone("core", tier="core"),
)

#: plane name -> (PlatformConfig kwargs that enable it, alias attribute
#: on the facade, REST routes it owns).
PLANES: dict[str, tuple[dict, str, tuple[tuple[str, str], ...]]] = {
    "qos": ({"qos": QosConfig(enabled=True)}, "qos", ()),
    "durability": (
        {"durability": DurabilityConfig(enabled=True)},
        "durability",
        (
            ("POST", "/api/classes/Image/snapshots"),
            ("GET", "/api/classes/Image/snapshots"),
            ("POST", "/api/classes/Image/restore"),
        ),
    ),
    "scheduler": (
        {"scheduler": SchedulerConfig(enabled=True)},
        "scheduler_plane",
        (("GET", "/api/workers"), ("POST", "/api/workers/worker-0/drain")),
    ),
    "federation": (
        {
            "federation": FederationConfig(enabled=True, zones=ZONES),
            "regions": tuple(zone.name for zone in ZONES),
        },
        "federation",
        (("POST", "/api/classes/Image/objects/Image~x/migrate"),),
    ),
    "metrics": ({"metrics": MetricsConfig(enabled=True)}, "metrics", ()),
}


def _tag(ctx):
    """Append the payload's tag: a write that is visible, countable and
    order-revealing in the object's state."""
    labels = list(ctx.state.get("labels") or [])
    labels.append(ctx.payload["tag"])
    ctx.state["labels"] = labels
    return {"count": len(labels)}


def _noop(ctx):
    return {}


HANDLERS = {
    "img/resize": (_noop, 0.004),
    "img/change-format": (_noop, 0.002),
    "img/detect-object": (_tag, 0.003),
}


def platform_with(*names: str, **extra):
    kwargs: dict = {"nodes": 6, "seed": 3}
    for name in names:
        kwargs.update(PLANES[name][0])
    kwargs.update(extra)
    return make_platform(LISTING1_YAML, HANDLERS, **kwargs)


def owned_keys(plane: Plane) -> set[str]:
    """The flat-snapshot keys of ``plane``: one per number of its stats."""
    return {
        render_series_name(name, label_key(labels))
        for name, labels, _value in numbers(plane.stats(), plane.name)
    }


# -- the contract ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PLANES))
def test_disabled_plane_is_absent(name):
    _config, alias, routes = PLANES[name]
    enabled = platform_with(name)
    owned = owned_keys(enabled.planes[name])
    enabled.shutdown()

    platform = platform_with()
    assert platform.planes == {}
    assert getattr(platform, alias) is None
    assert platform.report(name) == {}
    assert owned and not owned & set(platform.snapshot())
    assert name not in platform.observability_report()
    for method, path in routes:
        response = platform.http(method, path)
        assert response.status == 404, (method, path)
        assert response.body["type"] == "NoRouteError"
    platform.shutdown()


@pytest.mark.parametrize("name", sorted(PLANES))
def test_enabled_plane_is_registered_under_its_name(name):
    _config, alias, routes = PLANES[name]
    baseline = platform_with(**{k: v for k, v in PLANES[name][0].items() if k == "regions"})
    base_snap = baseline.snapshot()
    baseline.shutdown()

    platform = platform_with(name)
    plane = platform.planes[name]
    assert list(platform.planes) == [name]
    assert isinstance(plane, Plane) and plane.name == name
    assert getattr(platform, alias) is plane
    # The plane adds exactly its own snapshot keys; every baseline key
    # keeps its value.
    snap = platform.snapshot()
    assert set(snap) - set(base_snap) == owned_keys(plane)
    assert {key: snap[key] for key in base_snap} == base_snap
    # Its section of the report is its stats(), and plain JSON.
    stats = platform.report(name)
    assert stats and json.loads(json.dumps(stats)) == stats
    assert platform.observability_report()[name] == stats
    for method, path in routes:
        assert platform.http(method, path).body.get("type") != "NoRouteError", (method, path)
    platform.shutdown()


def test_no_hook_has_fewer_than_two_implementers():
    from repro.chaos.injector import ChaosInjector
    from repro.durability.plane import DurabilityPlane
    from repro.federation.plane import FederationPlane
    from repro.monitoring.plane import MetricsPlane
    from repro.qos.plane import QosPlane
    from repro.scheduler.plane import SchedulerPlane

    classes = (
        QosPlane, DurabilityPlane, SchedulerPlane, FederationPlane, MetricsPlane, ChaosInjector
    )
    hooks = [hook for hook in vars(Plane) if not hook.startswith("_") and hook != "name"]
    assert len({cls.name for cls in classes}) == len(classes)
    for hook in hooks:
        implementers = [cls.__name__ for cls in classes if hook in vars(cls)]
        assert len(implementers) >= 2, (hook, implementers)


def test_chaos_joins_the_registry_when_injected():
    from repro.chaos import FaultPlan, NodeCrash

    platform = platform_with("qos")
    injector = platform.inject_chaos(FaultPlan("one-crash", (NodeCrash(at=0.1, node="vm-5"),)))
    assert list(platform.planes) == ["qos", "chaos"]
    assert platform.chaos is injector is platform.planes["chaos"]
    platform.advance(0.5)
    assert platform.report("chaos")["injected"] == 1
    assert platform.observability_report()["chaos"] == injector.stats()
    platform.shutdown()


# -- the pairwise matrix ----------------------------------------------------------

COMBOS = [*itertools.combinations(sorted(PLANES), 2), tuple(sorted(PLANES))]


def run_matrix_workload(names: tuple[str, ...]):
    """Two objects, interleaved sync and async tagged writes, one node
    crash half-way.  Returns what the invariants and the replay check
    read."""
    platform = platform_with(*names)
    # Fixed ids: a random id would hash to a different owner each run.
    objects = [platform.new_object("LabelledImage", object_id=f"img-{i}") for i in range(2)]
    acknowledged: dict[str, list[str]] = {obj: [] for obj in objects}
    versions: dict[str, list[int]] = {obj: [] for obj in objects}
    pending = []

    def write(round_index: int) -> None:
        for index, obj in enumerate(objects):
            tag = f"s{round_index}.{index}"
            result = platform.invoke(obj, "detectObject", {"tag": tag}, raise_on_error=False)
            if result.ok:
                acknowledged[obj].append(tag)
                versions[obj].append(platform.get_object(obj)["version"])
            tag = f"a{round_index}.{index}"
            pending.append((obj, tag, platform.invoke_async(obj, "detectObject", {"tag": tag})))
        platform.advance(0.05)

    for round_index in range(4):
        write(round_index)
    # Everything acknowledged so far is flushed: the crash below may only
    # cost what the platform never promised to keep.
    platform.advance(1.0)
    platform.flush()
    victim = platform.crm.runtime("LabelledImage").dht.owner(objects[0])
    platform.fail_node(victim)
    for round_index in range(4, 8):
        write(round_index)
    platform.advance(3.0)  # drain the async backlog
    for obj, tag, completion in pending:
        assert completion.triggered, (names, tag)
        if completion.value.ok:
            acknowledged[obj].append(tag)
    labels = {obj: platform.get_object(obj)["state"]["labels"] for obj in objects}
    audit = platform.queue.core.ledger.audit()
    async_pending = platform.queue.pending
    sections = set(platform.observability_report())
    # The kernel profiler's wall-clock seconds are the one host-timed
    # series (metrics plane on); everything else is simulated.
    snapshot = {
        key: value
        for key, value in platform.snapshot().items()
        if not key.startswith("kernel.dispatches.seconds")
    }
    stop = platform.queue.stop()
    platform.shutdown()
    return {
        "acknowledged": acknowledged,
        "versions": versions,
        "labels": labels,
        "audit": audit,
        "async_pending": async_pending,
        "sections": sections,
        "replay": (snapshot, stop, platform.now),
    }


@pytest.mark.parametrize("names", COMBOS, ids="+".join)
def test_plane_combination_keeps_the_invariants(names):
    run = run_matrix_workload(names)
    for obj, tags in run["acknowledged"].items():
        labels = run["labels"][obj]
        # Exactly once: no tag twice, every acknowledged tag present.
        assert len(labels) == len(set(labels)), (names, labels)
        assert set(tags) <= set(labels), (names, sorted(set(tags) - set(labels)))
        assert len(tags) >= 8, (names, tags)  # the workload was not mostly refused
        versions = run["versions"][obj]
        assert versions == sorted(set(versions)), (names, versions)
    assert run["async_pending"] == 0
    audit = run["audit"]
    assert audit["accepted"] == audit["completed"] + audit["outstanding"]
    assert audit["outstanding"] == 0
    assert set(names) <= run["sections"]
    assert not (set(PLANES) - set(names)) & run["sections"]
    # Replay identity: the same config and seed reproduce the run.
    assert run_matrix_workload(names)["replay"] == run["replay"]
