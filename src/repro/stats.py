"""The one percentile rule behind every latency figure the repo reports."""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["nearest_rank"]


def nearest_rank(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile ``pct`` (0 < pct <= 100) of ``ordered``
    (sorted ascending): the sample at rank ``ceil(pct / 100 * n)``, so
    the p99 of fewer than 100 samples is the largest.  0.0 when empty."""
    if not ordered:
        return 0.0
    return ordered[max(0, min(len(ordered) - 1, math.ceil(pct / 100 * len(ordered)) - 1))]
