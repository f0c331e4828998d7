"""Order statistics shared by the benchmark and its compare mode."""

from __future__ import annotations

import math
import statistics

#: a percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float | None:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``values``, or
    ``None`` when fewer than :data:`MIN_BEYOND` samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``, as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0
