"""The one percentile rule behind every latency figure the repo reports."""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["nearest_rank", "rank_index"]


def nearest_rank(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile ``pct`` (0 < pct <= 100) of ``ordered``
    (sorted ascending): the sample at rank ``ceil(pct / 100 * n)``, so
    the p99 of fewer than 100 samples is the largest.  0.0 when empty."""
    if not ordered:
        return 0.0
    return ordered[rank_index(len(ordered), pct)]


def rank_index(n: int, pct: float) -> int:
    """The 0-based position :func:`nearest_rank` reads among ``n > 0``
    sorted samples."""
    return max(0, min(n - 1, math.ceil(pct / 100 * n) - 1))
