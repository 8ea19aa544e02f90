"""The experiment harness reproducing the paper's evaluation.

See DESIGN.md §4 for the experiment index: FIG3 (scalability sweep),
FIG1 (abstraction comparison), FIG2 (template selection), and the
ten ABL-* ablations (``repro.bench.ablations.ABLATIONS``).
"""

from repro.bench.config import Fig3Config
from repro.bench.scalability import Fig3Row, run_cell, run_fig3
from repro.bench.systems import SYSTEMS, build_system
from repro.bench.report import format_fig3, format_fig3_chart, format_table

__all__ = [
    "Fig3Config",
    "Fig3Row",
    "run_cell",
    "run_fig3",
    "SYSTEMS",
    "build_system",
    "format_fig3",
    "format_fig3_chart",
    "format_table",
]
