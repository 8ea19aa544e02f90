"""The one renderer: its shape rules, and that every plane's state
reaches ``ocli report``'s text through it."""

from __future__ import annotations

from typing import Any, Iterator

from repro.chaos import named_plan
from repro.durability.plane import DurabilityConfig
from repro.federation.plane import FederationConfig
from repro.monitoring.export import format_summary
from repro.monitoring.plane import MetricsConfig
from repro.orchestrator.topology import Zone
from repro.qos.plane import QosConfig
from repro.render import cell, format_table, render
from repro.scheduler.plane import SchedulerConfig

from tests.helpers import listing1_platform


def test_list_of_dicts_is_a_table():
    text = render([{"worker": "w-0", "done": 3}, {"worker": "w-1", "done": 12, "node": "vm-1"}])
    assert text.splitlines() == [
        "worker  done  node",
        "------  ----  ----",
        "w-0     3     -",
        "w-1     12    vm-1",
    ]


def test_dict_of_dicts_is_a_table_keyed_by_its_first_column():
    text = render({"Hot": {"admitted": 5, "rejected": 1}, "Cold": {"admitted": 0}}, "admission")
    assert text.splitlines() == [
        "admission:",
        "  name  admitted  rejected",
        "  ----  --------  --------",
        "  Hot   5         1",
        "  Cold  0         -",
    ]


def test_scalars_are_key_value_lines():
    assert render({"pushed": 4, "served": 4, "plan": "mixed"}) == "pushed=4 served=4 plan=mixed"
    assert render({"pushed": 4}, "fair_queue") == "fair_queue: pushed=4"
    assert render(7, "depth") == "depth=7"


def test_none_and_empty_containers_print_as_a_dash():
    assert render({"rate": None, "by_class": {}, "alerts": []}) == "rate=- by_class=- alerts=-"
    assert cell(None) == "-"


def test_one_float_rule():
    assert [cell(v) for v in (6.0, 0.999, 1797.959512, 6.0e-05, 0.0, 2)] == [
        "6.0", "0.999", "1797.9595", "0.0001", "0.0", "2"
    ]
    assert render({"mean_ms": 4.59031}) == "mean_ms=4.5903"
    assert cell(["Ledger", "Scratch"]) == "Ledger,Scratch"


def test_nested_values_recurse_under_a_heading():
    text = render({
        "injected": 1,
        "plan": {"name": "node-crash", "faults": [{"kind": "NodeCrash", "at": 2.0}]},
        "classes": {"Ledger": {"policy": {"mode": "periodic"}, "cuts": 1}},
    }, "chaos")
    assert text.splitlines() == [
        "chaos:",
        "  injected=1",
        "  plan:",
        "    name=node-crash",
        "    faults:",
        "      kind       at",
        "      ---------  ---",
        "      NodeCrash  2.0",
        "  classes:",
        "    Ledger:",
        "      cuts=1",
        "      policy: mode=periodic",
    ]


def test_empty_input():
    assert render({}) == "-"
    assert render([]) == "-"
    assert render({}, "qos") == "qos=-"


def test_format_table_is_the_bench_table():
    assert format_table(("a", "bb"), [("1", "2"), ("333", "4")]).splitlines() == [
        "a    bb",
        "---  --",
        "1    2 ",
        "333  4 ",
    ]


def _keys(value: Any) -> Iterator[str]:
    """Every key at every depth of a stats dict."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield str(key)
            yield from _keys(item)
    elif isinstance(value, list):
        for item in value:
            yield from _keys(item)


def test_every_key_of_every_plane_reaches_the_report_text():
    platform = listing1_platform(
        tracing_enabled=True,
        events_enabled=True,
        qos=QosConfig(enabled=True),
        durability=DurabilityConfig(enabled=True),
        metrics=MetricsConfig(enabled=True),
        scheduler=SchedulerConfig(enabled=True),
        federation=FederationConfig(
            enabled=True, zones=(Zone("edge-a", tier="edge"), Zone("core", tier="core"))
        ),
    )
    platform.inject_chaos(named_plan("node-crash", list(platform.cluster.node_names)))
    obj = platform.new_object("Image")
    for width in range(1, 31):
        platform.http("POST", f"/api/objects/{obj}/invokes/resize", {"width": width})
        platform.invoke_async(obj, "resize", {"width": width})
        platform.advance(0.3)
    platform.shutdown()
    assert set(platform.planes) == {
        "qos", "durability", "metrics", "scheduler", "federation", "chaos"
    }
    text = format_summary(platform.observability_report())
    for name, plane in platform.planes.items():
        stats = plane.stats()
        assert stats, name
        section = text.split(f"\n{name} plane", 1)[1].split("\n\n", 1)[0]
        missing = sorted({key for key in _keys(stats) if key not in section})
        assert not missing, (name, missing)
