"""The benchmark's only percentile/quartile helpers."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``p`` %
    of the sample at or below it (``p = 0`` gives the minimum).

    Raises ``ValueError`` on an empty sample or ``p`` outside [0, 100] —
    a percentile of nothing is a bug in the caller, not 0.0.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"p must be in [0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def samples_beyond(count: int, p: float) -> int:
    """How many samples lie strictly beyond the nearest-rank ``p``-th
    percentile of a sample of ``count``."""
    return count - max(1, math.ceil(p / 100.0 * count))
