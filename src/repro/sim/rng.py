"""Seeded random sampling used by the trace generators.

File popularity in file-system traces is heavily skewed; the generators draw
file ranks from a bounded Zipf distribution.  The sampler precomputes the
CDF once and draws by binary search — O(log n) per sample, deterministic
given the seed.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Sequence


def make_rng(seed: int) -> random.Random:
    """Return a dedicated :class:`random.Random` for a component.

    Every stochastic component takes its own RNG so that adding draws in one
    place never perturbs another (a classic simulation-reproducibility rule).
    """
    return random.Random(seed)


class ZipfSampler:
    """Bounded Zipf distribution over ranks ``0 .. population - 1``.

    ``P(rank = r) ∝ 1 / (r + 1)^alpha``.  ``alpha = 0`` degenerates to
    uniform; file-system popularity typically fits ``alpha ≈ 0.8-1.1``.
    """

    def __init__(self, population: int, alpha: float, rng: random.Random) -> None:
        if population <= 0:
            raise ValueError(f"population must be positive, got {population}")
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self._population = population
        self._alpha = alpha
        self._rng = rng
        self._cdf = self._build_cdf(population, alpha)

    @staticmethod
    def _build_cdf(population: int, alpha: float) -> List[float]:
        weights = [1.0 / (rank + 1) ** alpha for rank in range(population)]
        total = sum(weights)
        cdf: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cdf.append(acc)
        cdf[-1] = 1.0  # guard against float drift
        return cdf

    @property
    def population(self) -> int:
        return self._population

    @property
    def alpha(self) -> float:
        return self._alpha

    def sample(self) -> int:
        """Draw one rank."""
        u = self._rng.random()
        return bisect.bisect_left(self._cdf, u)

    def probability(self, rank: int) -> float:
        """Exact probability mass of ``rank``."""
        if not 0 <= rank < self._population:
            raise IndexError(f"rank {rank} out of range")
        lower = self._cdf[rank - 1] if rank > 0 else 0.0
        return self._cdf[rank] - lower


def weighted_choice(weights: Sequence[float], rng: random.Random) -> int:
    """Draw an index proportionally to ``weights``."""
    if not weights:
        raise ValueError("weights must be non-empty")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    total = sum(weights)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    u = rng.random() * total
    acc = 0.0
    for index, weight in enumerate(weights):
        acc += weight
        if u < acc:
            return index
    return len(weights) - 1
