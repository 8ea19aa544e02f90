"""The ablations (the tutorial's "optimal configurations to avoid
potential overheads"), one test per row of ``ABLATIONS``.

Each test runs one ablation's benchmark arms, prints its EXPERIMENTS.md
table through ``format_table`` from the column spec below, checks every
row field by field against ``tests/golden/experiments.json``, and runs
the ablation's claim check.  Select one with ``-k ABL-QOS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.bench.ablations import ABLATIONS, run_ablation
from repro.bench.report import format_table

from conftest import golden_rows

#: A cell is a ``str.format`` template over the row ``r``, or a function of it.
Cell = str | Callable[[Any], object]


@dataclass(frozen=True)
class Table:
    """How one ablation's table prints, and the claim its rows must hold."""

    title: str
    columns: dict[str, Cell]
    claim: Callable[[list[Any]], None]


def _yes(met: bool) -> str:
    return "yes" if met else "NO"


def _batch(rows):
    assert all(r.throughput_rps > 0 for r in rows)
    assert rows[-1].throughput_rps > rows[0].throughput_rps * 1.5


def _cold(rows):
    # The observability layer must agree with the engine's own counter:
    # every cold start yields exactly one faas.cold_start span and event.
    assert all(r.traced_cold_starts == r.event_cold_starts == r.cold_starts for r in rows)
    assert rows[0].first_latency_ms > rows[-1].first_latency_ms


def _locality(rows):
    local, spray = rows
    assert local.locality_ratio == pytest.approx(1.0)
    assert local.mean_latency_ms < spray.mean_latency_ms
    assert local.throughput_rps > spray.throughput_rps


def _presign(rows):
    assert all(r.proxied_ms > r.direct_ms for r in rows)


def _repl(rows):
    assert rows[-1].survivors_pct > rows[0].survivors_pct


def _burst(rows):
    assert rows[0].burst_p99_ms > rows[-1].burst_p99_ms


def _readpath(rows):
    assert all(r.store_read_ops > 0 for r in rows)
    assert rows[0].store_read_ops >= 2 * rows[1].store_read_ops


def _qos(rows):
    fifo, qos = rows
    assert fifo.hot_completed > 0 and qos.hot_completed > 0
    assert not fifo.hot_met
    assert qos.hot_met
    assert qos.noisy_shed > 0


def _durability(rows):
    assert all(r.acked_writes > 0 for r in rows)
    on = {r.cls: r for r in rows if r.mode == "on"}
    # Strong durability: zero acknowledged writes lost, measured.
    assert on["Ledger"].recovered
    assert on["Ledger"].rpo_s == 0.0
    assert on["Ledger"].lost_acked == 0
    # Standard durability: bounded loss window, measured.
    assert on["Cart"].recovered
    assert on["Cart"].rpo_s <= 0.5


def _federation(rows):
    assert all(r.completed > 0 for r in rows)
    core, edge, _ = rows
    print(
        f"edge-pinned p95 {edge.sensor_p95_ms:.1f}ms vs core-only "
        f"{core.sensor_p95_ms:.1f}ms "
        f"({core.sensor_p95_ms / edge.sensor_p95_ms:.1f}x)"
    )


TABLES = {
    "ABL-BATCH": Table(
        "write-behind batch size (oprc-bypass, 6 VMs)",
        {
            "batch": "{r.batch_size}",
            "throughput_rps": "{r.throughput_rps:.0f}",
            "db_ops": "{r.db_write_ops}",
            "docs/op": "{r.docs_per_op:.1f}",
            "mean_ms": "{r.mean_latency_ms:.1f}",
        },
        _batch,
    ),
    "ABL-COLD": Table(
        "cold start vs pre-warmed replicas",
        {
            "min_scale": "{r.min_scale}",
            "idle_replicas": "{r.idle_replicas}",
            "first_ms": "{r.first_latency_ms:.0f}",
            "burst_p99_ms": "{r.burst_p99_ms:.0f}",
            "cold_starts": "{r.cold_starts}",
        },
        _cold,
    ),
    "ABL-LOCALITY": Table(
        "placement policy (oprc-bypass, 6 VMs)",
        {
            "policy": "{r.policy}",
            "throughput_rps": "{r.throughput_rps:.0f}",
            "mean_ms": "{r.mean_latency_ms:.2f}",
            "local_ratio": "{r.locality_ratio:.2f}",
            "remote_transfers": "{r.remote_transfers}",
        },
        _locality,
    ),
    "ABL-PRESIGN": Table(
        "direct vs proxied unstructured data",
        {
            "size_bytes": "{r.size_bytes}",
            "direct_ms": "{r.direct_ms:.2f}",
            "proxied_ms": "{r.proxied_ms:.2f}",
            "overhead": "{r.overhead_factor:.2f}x",
        },
        _presign,
    ),
    "ABL-REPL": Table(
        "replication factor (memory-only, 6 VMs, 1 node crashed)",
        {
            "replication": "{r.replication}",
            "throughput_rps": "{r.throughput_rps:.0f}",
            "mean_ms": "{r.mean_latency_ms:.1f}",
            "survivors": "{r.survivors_pct:.0f}%",
        },
        _repl,
    ),
    "ABL-BURST": Table(
        "burst tracking (40 -> 400 rps phases)",
        {
            "min_scale": "{r.min_scale}",
            "base_p99_ms": "{r.base_p99_ms:.0f}",
            "burst_p99_ms": "{r.burst_p99_ms:.0f}",
            "degradation": "{r.degradation:.1f}x",
            "peak_replicas": "{r.peak_replicas}",
        },
        _burst,
    ),
    "ABL-READPATH": Table(
        "miss-storm reads after fail_node (4 VMs)",
        {
            "mode": "{r.mode}",
            "store_reads": "{r.store_read_ops}",
            "multi_gets": "{r.store_multi_read_ops}",
            "coalesced": "{r.coalesced}",
            "near_hits": "{r.near_hits}",
            "mean_ms": "{r.mean_get_ms:.2f}",
        },
        _readpath,
    ),
    "ABL-QOS": Table(
        "hot class vs flooding neighbour (3 VMs)",
        {
            "mode": "{r.mode}",
            "hot_p95_ms": "{r.hot_p95_ms:.1f}",
            "target_ms": "{r.hot_target_ms:.0f}",
            "hot_met": lambda r: _yes(r.hot_met),
            "hot_ok": "{r.hot_completed}",
            "noisy_ok": "{r.noisy_completed}",
            "noisy_shed": "{r.noisy_shed}",
        },
        _qos,
    ),
    "ABL-DURABILITY": Table(
        "crash drill, plane off vs on (3 VMs)",
        {
            "mode": "{r.mode}",
            "class": "{r.cls}",
            "policy": "{r.policy}",
            "acked": "{r.acked_writes}",
            "survived": "{r.surviving_count}",
            "lost": "{r.lost_acked}",
            "rpo_s": lambda r: f"{r.rpo_s:.4f}" if r.recovered else "-",
            "rto_s": lambda r: f"{r.rto_s:.4f}" if r.recovered else "-",
            "cuts": "{r.cuts}",
            "epochs": "{r.epoch_writes}",
        },
        _durability,
    ),
    "ABL-FEDERATION": Table(
        "placement arms on the three-tier topology",
        {
            "mode": "{r.mode}",
            "placement": "{r.placement}",
            "sensor_p95_ms": "{r.sensor_p95_ms:.1f}",
            "target_ms": "{r.sensor_target_ms:.0f}",
            "met": lambda r: _yes(r.sensor_met),
            "ok": "{r.completed}",
            "cross_zone": "{r.cross_zone}",
            "vault_rej": "{r.vault_rejections}",
        },
        _federation,
    ),
}


def _cell(spec: Cell, row: Any) -> object:
    return spec(row) if callable(spec) else spec.format(r=row)


@pytest.mark.parametrize("name", ABLATIONS)
def test_ablation(benchmark, golden, name):
    table = TABLES[name]
    rows = benchmark.pedantic(run_ablation, args=(name,), rounds=1, iterations=1)
    benchmark.extra_info["rows"] = golden_rows(rows)
    print(f"\n\n=== {name}: {table.title} ===")
    print(
        format_table(
            tuple(table.columns),
            [[_cell(spec, row) for spec in table.columns.values()] for row in rows],
        )
    )
    assert golden_rows(rows) == golden[name]
    table.claim(rows)
