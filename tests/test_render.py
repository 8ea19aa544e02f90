"""The one renderer and the one outlet: their shape rules, that every
plane's state reaches ``ocli report``'s text, and that every number in
it reaches the metrics exposition and the flat snapshot."""

from __future__ import annotations

from typing import Any, Iterator

from repro.chaos import named_plan
from repro.durability.plane import DurabilityConfig
from repro.federation.plane import FederationConfig
from repro.monitoring.export import format_summary
from repro.monitoring.exposition import render_labels, sanitize_metric_name
from repro.monitoring.metrics import label_key, render_series_name
from repro.monitoring.plane import MetricsConfig
from repro.orchestrator.topology import Zone
from repro.qos.plane import QosConfig
from repro.render import cell, format_table, numbers, render
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


def test_numbers_name_leaves_by_their_dotted_path():
    stats = {"in_flight": 2, "fair_queue": {"depth": 0, "rate": 0.5}, "ok": True, "plan": "x"}
    assert list(numbers(stats, "qos")) == [
        ("qos.in_flight", {}, 2),
        ("qos.fair_queue.depth", {}, 0),
        ("qos.fair_queue.rate", {}, 0.5),
    ]


def test_numbers_label_a_dict_of_dicts_by_name():
    stats = {"classes": {"Hot": {"cuts": 3, "policy": {"interval_s": 1.0, "mode": "periodic"}}}}
    assert list(numbers(stats, "durability")) == [
        ("durability.classes.cuts", {"name": "Hot"}, 3),
        ("durability.classes.policy.interval_s", {"name": "Hot"}, 1.0),
    ]


def test_numbers_label_a_list_of_rows_by_its_first_column():
    workers = [
        {"worker": "w-0", "state": "READY", "done": 3, "in_flight": False, "installed": ["A"]},
        {"worker": "w-1", "state": "DEAD", "done": 1, "in_flight": True, "installed": []},
    ]
    assert list(numbers({"workers": workers}, "scheduler")) == [
        ("scheduler.workers.done", {"worker": "w-0"}, 3),
        ("scheduler.workers.done", {"worker": "w-1"}, 1),
    ]


def test_numbers_skip_lists_that_are_not_labelled_tables():
    stats = {
        "generations": [{"generation": 1, "captured": 4}, {"generation": 2, "captured": 5}],
        "faults": [{"kind": "NodeCrash", "at": 1.0}, {"kind": "NodeCrash", "at": 2.0}],
        "windows": [{"started_at": 0.5, "ended_at": None}],
        "depths": [1, 2, 3],
        "last": None,
    }
    assert list(numbers(stats, "p")) == []


def _keys(value: Any) -> Iterator[str]:
    """Every key at every depth of a stats dict."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield str(key)
            yield from _keys(item)
    elif isinstance(value, list):
        for item in value:
            yield from _keys(item)


def _all_planes_platform(chaos: bool = True, **durability: Any):
    platform = listing1_platform(
        tracing_enabled=True,
        events_enabled=True,
        qos=QosConfig(enabled=True),
        durability=DurabilityConfig(enabled=True, **durability),
        metrics=MetricsConfig(enabled=True),
        scheduler=SchedulerConfig(enabled=True),
        federation=FederationConfig(
            enabled=True, zones=(Zone("edge-a", tier="edge"), Zone("core", tier="core"))
        ),
    )
    if chaos:
        platform.inject_chaos(named_plan("node-crash", list(platform.cluster.node_names)))
    return platform


def _run_all_planes():
    """Every plane plus chaos under sync and async writes across a node
    crash."""
    platform = _all_planes_platform()
    obj = platform.new_object("Image", object_id="img-0")
    for width in range(1, 31):
        platform.http("POST", f"/api/objects/{obj}/invokes/resize", {"width": width})
        platform.invoke_async(obj, "resize", {"width": width})
        platform.advance(0.3)
    platform.shutdown()
    return platform


#: The data plane's sections (the kernel's with the metrics plane on),
#: in the order ``Oparaca.sections()`` keeps them, before the planes'.
DATA_PLANE = ("gateway", "engine", "store", "queue", "kernel", "classes")


def test_every_key_of_every_plane_reaches_the_report_text():
    """Every section — the data plane's and each plane's — prints under
    its name with every key it holds."""
    platform = _run_all_planes()
    sections = platform.sections()
    assert set(platform.planes) == {
        "qos", "durability", "metrics", "scheduler", "federation", "chaos"
    }
    assert list(sections) == [*DATA_PLANE, *platform.planes]
    text = format_summary(platform.observability_report())
    for name, stats in sections.items():
        assert stats, name
        section = text.split(f"\n{name}:", 1)[1].split("\n\n", 1)[0]
        missing = sorted({key for key in _keys(stats) if key not in section})
        assert not missing, (name, missing)


def test_every_number_of_every_plane_is_a_series_and_a_snapshot_key():
    """Every number of every section is one exposition line and one
    snapshot key, each with its value; the snapshot holds nothing else
    but the histograms' summaries, so no number has two names."""
    platform = _run_all_planes()
    platform.metrics.scraper.scrape_once()
    exposed = dict(
        line.rsplit(" ", 1)
        for line in platform.metrics_exposition().splitlines()
        if not line.startswith("#")
    )
    snapshot = platform.snapshot()
    keys = []
    for name, stats in platform.sections().items():
        found = list(numbers(stats, name))
        assert len(found) >= (4 if name in platform.planes else 1), name
        for series, labels, value in found:
            line = sanitize_metric_name(series) + render_labels(
                label_key({**labels, "plane": name})
            )
            # The metrics plane's own counts move after it collects.
            if name != "metrics":
                assert float(exposed[line]) == value, line
            assert line in exposed, line
            keys.append(render_series_name(series, label_key(labels)))
            assert snapshot[keys[-1]] == value, keys[-1]
    assert len(set(keys)) == len(keys)
    summaries = platform.monitoring.registry.summaries()
    assert summaries and set(snapshot) == set(keys) | set(summaries)


def _plane_series(cuts: int) -> int:
    # No fault plan: a crash adds rows (a replacement worker, a recovery)
    # that no number of cuts does.
    platform = _all_planes_platform(chaos=False, default_interval_s=0.1)
    obj = platform.new_object("Image", object_id="img-0")
    for width in range(4 * cuts):
        if platform.durability.stats()["cuts_total"] >= cuts:
            break
        platform.http("PATCH", f"/api/objects/{obj}", {"width": width})
        platform.advance(0.1)
    assert platform.durability.stats()["classes"]["Image"]["generation_count"] >= cuts
    platform.metrics.scraper.scrape_once()
    planes = set(platform.planes)
    series = [
        gauge for gauge in platform.metrics.registry.gauges()
        if dict(gauge.labels).get("plane") in planes
    ]
    platform.shutdown()
    return len(series)


def test_plane_series_do_not_grow_with_snapshot_cuts():
    assert _plane_series(10) == _plane_series(40)
