"""Plain-text reporting for experiment results.

Prints the same rows/series the paper's figures plot: throughput per
(system, VM count), plus an ASCII rendition of Fig. 3 so the shape is
visible straight from a terminal.
"""

from __future__ import annotations

from collections import defaultdict

from repro.bench.scalability import Fig3Row
from repro.render import format_table

__all__ = ["format_table", "format_fig3", "format_fig3_chart"]


def format_fig3(rows: list[Fig3Row]) -> str:
    """The Fig. 3 series as a table (one row per system x VM count)."""
    table_rows = [
        (
            row.system,
            row.nodes,
            f"{row.throughput_rps:.0f}",
            f"{row.mean_latency_ms:.1f}",
            f"{row.p99_latency_ms:.1f}",
            row.completed,
            row.failed,
        )
        for row in rows
    ]
    return format_table(
        ("system", "vms", "throughput_rps", "mean_ms", "p99_ms", "completed", "failed"),
        table_rows,
    )


def format_fig3_chart(rows: list[Fig3Row], width: int = 60) -> str:
    """An ASCII bar chart of throughput vs VMs, grouped by system."""
    if not rows:
        return "(no data)"
    peak = max(row.throughput_rps for row in rows) or 1.0
    by_system: dict[str, list[Fig3Row]] = defaultdict(list)
    for row in rows:
        by_system[row.system].append(row)
    lines = [f"throughput (requests/s), full bar = {peak:.0f} rps"]
    for system in sorted(by_system):
        lines.append(f"{system}:")
        for row in sorted(by_system[system], key=lambda r: r.nodes):
            bar = "#" * max(1, round(row.throughput_rps / peak * width))
            lines.append(f"  {row.nodes:>3} VMs |{bar} {row.throughput_rps:.0f}")
    return "\n".join(lines)
