"""Order statistics shared by the e2e benchmark and its comparator.

Quartiles follow ``statistics.quantiles(values, n=4)`` (the exclusive
method), the same rule used to judge the benchmark's run-to-run spread,
so a spread printed here is the spread anyone recomputes from the
same values.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = ["quartiles", "nearest_rank", "tail_percentile", "TAIL_LADDER", "MIN_BEYOND"]

#: Percentiles tried, highest first, when reporting a latency tail.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``; a single value is its own quartiles."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("quartiles of an empty sample")
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def nearest_rank(values: Sequence[float], p: float) -> tuple[float, int]:
    """Nearest-rank ``p``-th percentile and the count of samples above its rank."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    rank = max(1, math.ceil(p * len(vals) / 100.0))
    return vals[rank - 1], len(vals) - rank


def tail_percentile(values: Sequence[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with >= ``MIN_BEYOND`` samples beyond it.

    Returns ``(percentile, value, n)``.  A sample too small for any tail
    falls back to its median, still labelled with its true ``n``.
    """
    n = len(values)
    for p in TAIL_LADDER:
        value, beyond = nearest_rank(values, p)
        if beyond >= MIN_BEYOND:
            return p, value, n
    return 50.0, nearest_rank(values, 50.0)[0], n
