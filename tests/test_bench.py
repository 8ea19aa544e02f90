"""Tests for the experiment harness (smaller-than-quick configurations)."""

import pytest

from repro.bench.abstraction import run_fig1
from repro.bench.ablations import run_ablation
from repro.bench.config import Fig3Config
from repro.bench.report import format_fig3, format_fig3_chart, format_table
from repro.bench.scalability import Fig3Row, run_cell
from repro.bench.systems import SYSTEMS, build_system
from repro.errors import ValidationError


def tiny_config(**overrides):
    """A very small Fig. 3 cell for unit-level checks."""
    base = dict(
        nodes_sweep=(3,),
        objects=200,
        clients_per_vm=16,
        horizon_s=4.0,
        warmup_s=2.0,
        service_time_s=0.05,
        db_capacity_units=8000.0,
        max_pending=2000,
        cold_start_s=0.5,
    )
    base.update(overrides)
    return Fig3Config(**base)


class TestSystems:
    def test_unknown_system_rejected(self):
        with pytest.raises(ValidationError):
            build_system("lambda", tiny_config(), 3)

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_each_system_serves_requests(self, name):
        row = run_cell(name, 3, tiny_config())
        assert row.completed > 0
        assert row.failed <= row.completed * 0.05
        assert row.throughput_rps > 0

    def test_oprc_uses_knative_engine(self):
        system = build_system("oprc", tiny_config(), 3)
        system.prepare()
        assert system.platform.crm.runtime("Doc").engine_name == "knative"
        system.shutdown()

    def test_bypass_uses_deployment_engine(self):
        system = build_system("oprc-bypass", tiny_config(), 3)
        system.prepare()
        runtime = system.platform.crm.runtime("Doc")
        assert runtime.engine_name == "deployment"
        assert runtime.dht.model.persistent
        system.shutdown()

    def test_nonpersist_has_no_db_tier(self):
        cfg = tiny_config()
        row = run_cell("oprc-bypass-nonpersist", 3, cfg)
        assert row.extras["db_write_ops"] == 0
        assert row.extras["db_docs_written"] == 0

    def test_oprc_batches_db_writes(self):
        row = run_cell("oprc", 3, tiny_config())
        ops, docs = row.extras["db_write_ops"], row.extras["db_docs_written"]
        assert docs > ops  # batching: several documents per operation

    def test_knative_baseline_writes_per_request(self):
        row = run_cell("knative", 3, tiny_config())
        assert row.extras["db_write_ops"] == row.extras["db_docs_written"]

    def test_bypass_outperforms_oprc_per_overheads(self):
        cfg = tiny_config(horizon_s=6.0, warmup_s=3.0)
        oprc = run_cell("oprc", 3, cfg)
        bypass = run_cell("oprc-bypass", 3, cfg)
        assert bypass.throughput_rps >= oprc.throughput_rps * 0.98


class TestFig3Shape:
    """The headline qualitative claims of Fig. 3 at quick scale."""

    @pytest.fixture(scope="class")
    def rows(self):
        cfg = Fig3Config.quick()
        return {
            (name, nodes): run_cell(name, nodes, cfg)
            for name in ("knative", "oprc", "oprc-bypass-nonpersist")
            for nodes in (3, 6)
        }

    def test_knative_plateaus_at_db_ceiling(self, rows):
        small = rows[("knative", 3)].throughput_rps
        large = rows[("knative", 6)].throughput_rps
        # Doubling VMs buys almost nothing once the DB ceiling binds.
        assert large < small * 1.3

    def test_oprc_scales_past_knative(self, rows):
        assert rows[("oprc", 6)].throughput_rps > rows[("knative", 6)].throughput_rps * 1.5

    def test_oprc_keeps_scaling_with_vms(self, rows):
        assert rows[("oprc", 6)].throughput_rps > rows[("oprc", 3)].throughput_rps * 1.4

    def test_nonpersist_is_highest(self, rows):
        top = rows[("oprc-bypass-nonpersist", 6)].throughput_rps
        assert top >= rows[("oprc", 6)].throughput_rps * 0.95
        assert top > rows[("knative", 6)].throughput_rps


class TestFig1:
    def test_macro_fewer_round_trips_and_faster(self):
        result = run_fig1(service_time_s=0.03)
        assert result.macro_round_trips == 1
        assert result.manual_round_trips == 3
        assert result.macro_latency_s < result.manual_latency_s
        assert result.latency_speedup > 1.2


class TestAblations:
    def test_cold_start_gap(self):
        results = run_ablation("ABL-COLD", arms=(0, 1), burst=8, idle_s=40.0)
        cold, warm = results
        assert cold.min_scale == 0
        assert cold.idle_replicas == 0
        assert warm.idle_replicas == 1
        assert cold.first_latency_ms > warm.first_latency_ms * 10
        assert cold.cold_starts > 0
        assert warm.cold_starts == 0

    def test_presigned_direct_cheaper(self):
        rows = run_ablation("ABL-PRESIGN", arms=(10_000, 1_000_000))
        for row in rows:
            assert row.proxied_ms > row.direct_ms


class TestReport:
    def _rows(self):
        return [
            Fig3Row("knative", 3, 600.0, 50.0, 120.0, 1000, 0),
            Fig3Row("oprc", 3, 900.0, 40.0, 100.0, 1500, 1),
        ]

    def test_format_table_aligns(self):
        text = format_table(("a", "bb"), [("1", "2"), ("333", "4")])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_fig3_contains_series(self):
        text = format_fig3(self._rows())
        assert "knative" in text
        assert "oprc" in text
        assert "600" in text

    def test_chart_renders_bars(self):
        chart = format_fig3_chart(self._rows())
        assert "#" in chart
        assert "3 VMs" in chart

    def test_chart_empty(self):
        assert format_fig3_chart([]) == "(no data)"
