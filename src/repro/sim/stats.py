"""Metric recorders used by the simulator and the benchmark harness.

Two recorders cover the paper's latency figures (event counts live in the
metrics registry, :mod:`repro.obs.registry`):

- :class:`LatencyRecorder` — streaming mean/min/max plus exact percentiles
  over a bounded reservoir.
- :class:`SeriesRecorder` — windowed averages, producing the
  "average latency vs. number of operations" series of Figures 8-10 and 14.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of a plain list (``p`` in [0, 100]); 0.0
    on empty input.  The one list-based percentile in the repo: bench
    reports, staleness audits and the scenarios' ``--json`` stats all use it
    (:class:`LatencyRecorder` below interpolates over a reservoir — a
    different estimator for streams too long to keep)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(p / 100.0 * (len(ordered) - 1))))
    return ordered[index]


class LatencyRecorder:
    """Streaming latency statistics with reservoir-sampled percentiles.

    The mean/min/max/count are exact; percentiles are computed over a
    uniform reservoir of ``reservoir_size`` samples (deterministic given the
    seed), which is accurate to well under a percentile point at the sample
    counts our experiments produce.
    """

    def __init__(self, reservoir_size: int = 4096, seed: int = 0) -> None:
        if reservoir_size <= 0:
            raise ValueError(f"reservoir_size must be positive, got {reservoir_size}")
        self._count = 0
        self._sum = 0.0
        self._sum_sq = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._reservoir: List[float] = []
        self._reservoir_size = reservoir_size
        self._rng = random.Random(seed)

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"latency must be non-negative, got {value}")
        self._count += 1
        self._sum += value
        self._sum_sq += value * value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        reservoir = self._reservoir
        if len(reservoir) < self._reservoir_size:
            reservoir.append(value)
        else:
            # Same draw sequence as ``randrange(self._count)`` without the
            # argument-validation wrapper (this runs once per observation).
            slot = self._rng._randbelow(self._count)
            if slot < self._reservoir_size:
                reservoir[slot] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        """Sum of the recorded values, added in recording order."""
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._count else 0.0

    @property
    def variance(self) -> float:
        if self._count < 2:
            return 0.0
        mean = self.mean
        return max(0.0, self._sum_sq / self._count - mean * mean)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def percentile(self, p: float) -> float:
        """Return the ``p``-th percentile (0 <= p <= 100).

        Accuracy contract:

        - With no recorded samples the result is ``0.0`` (matching
          :attr:`mean`/:attr:`minimum`/:attr:`maximum` on an empty recorder),
          never an exception.
        - ``p == 0`` and ``p == 100`` return the *exact* streamed
          :attr:`minimum` / :attr:`maximum` — extremes are tracked outside
          the reservoir, so they never suffer sampling error.
        - Interior percentiles interpolate over the uniform reservoir.
          While ``count <= reservoir_size`` the reservoir holds every
          sample and the result is exact; beyond that it is a
          deterministic (seeded) uniform sample of ``reservoir_size``
          values, accurate to well under a percentile point at the sample
          counts our experiments produce.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"p must be in [0, 100], got {p}")
        if not self._reservoir:
            return 0.0
        if p == 0.0:
            return self.minimum
        if p == 100.0:
            return self.maximum
        ordered = sorted(self._reservoir)
        rank = p / 100.0 * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        weight = rank - low
        return ordered[low] * (1.0 - weight) + ordered[high] * weight

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self._count),
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:
        return (
            f"LatencyRecorder(count={self._count}, mean={self.mean:.4f}, "
            f"max={self.maximum:.4f})"
        )


@dataclass(frozen=True)
class SeriesPoint:
    """One window of a metric series."""

    x: float
    mean: float
    count: int


class SeriesRecorder:
    """Windowed averages: mean of ``value`` per fixed-width window of ``x``.

    Figures 8-10 and 14 plot average latency against cumulative operation
    count; feeding ``(operation_index, latency)`` pairs here with a window
    width of e.g. 10^5 yields exactly those series.
    """

    def __init__(self, window_width: float) -> None:
        if window_width <= 0:
            raise ValueError(f"window_width must be positive, got {window_width}")
        self._width = window_width
        self._points: List[SeriesPoint] = []
        self._window_start = 0.0
        self._window_sum = 0.0
        self._window_count = 0

    def record(self, x: float, value: float) -> None:
        if x < self._window_start:
            raise ValueError(
                f"x must be non-decreasing: {x} < window start {self._window_start}"
            )
        while x >= self._window_start + self._width:
            self._flush_window()
        self._window_sum += value
        self._window_count += 1

    def _flush_window(self) -> None:
        if self._window_count > 0:
            self._points.append(
                SeriesPoint(
                    x=self._window_start + self._width / 2.0,
                    mean=self._window_sum / self._window_count,
                    count=self._window_count,
                )
            )
        self._window_start += self._width
        self._window_sum = 0.0
        self._window_count = 0

    def finish(self) -> List[SeriesPoint]:
        """Flush the trailing partial window and return all points."""
        if self._window_count > 0:
            self._flush_window()
        return list(self._points)

    def points(self) -> List[SeriesPoint]:
        """Points of completed windows (does not flush the current one)."""
        return list(self._points)
