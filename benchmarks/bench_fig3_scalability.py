"""FIG3 — scalability of Oparaca vs Knative (paper §V, Fig. 3).

One benchmark per (system, VM count) cell.  The simulated throughput —
the series Fig. 3 plots — is attached as ``extra_info`` and printed in
the summary at the end of the session.
"""

from __future__ import annotations

import pytest

from repro.bench.report import format_fig3, format_fig3_chart
from repro.bench.scalability import run_cell
from repro.bench.systems import SYSTEMS

from conftest import fig3_config, fig3_nodes, full_scale, golden_rows

_ROWS = []


@pytest.mark.parametrize("nodes", fig3_nodes())
@pytest.mark.parametrize("system", SYSTEMS)
def test_fig3_cell(benchmark, golden, system, nodes):
    cfg = fig3_config()

    def run():
        return run_cell(system, nodes, cfg)

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    _ROWS.append(row)
    benchmark.extra_info["system"] = system
    benchmark.extra_info["vms"] = nodes
    benchmark.extra_info["throughput_rps"] = round(row.throughput_rps, 1)
    benchmark.extra_info["p99_ms"] = round(row.p99_latency_ms, 1)
    assert row.completed > 0
    if not full_scale():
        assert golden_rows([row]) == [golden["FIG3"][f"{system}@{nodes}"]]


def teardown_module(module):
    if _ROWS:
        print("\n\n=== Fig. 3 reproduction (simulated) ===")
        print(format_fig3(sorted(_ROWS, key=lambda r: (r.system, r.nodes))))
        print()
        print(format_fig3_chart(_ROWS))
