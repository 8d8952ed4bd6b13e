"""Sliding-window heavy-hitter detection (space-saving sketch).

Metadata hotspots are directories and files that suddenly dominate the
request stream — a build fan-out stat-ing one tree, a dataset everyone
opens.  The gateway tracks them with the **space-saving** algorithm
(Metwally, Agrawal, El Abbadi 2005): a fixed budget of ``capacity``
counters; an unmonitored key evicts the minimum counter and inherits its
count as over-estimation ``error``.  Guarantees: every key with true
frequency above ``N / capacity`` is monitored, and estimates never
under-count.

A single sketch never forgets, so yesterday's hotspot would stay "hot"
forever.  :class:`HotspotDetector` therefore keeps **two epochs** — the
current sketch and the previous one — rotated every ``window_s`` of
virtual time; a key's windowed estimate is the sum of both, which decays
cold keys within two windows while keeping genuinely hot keys flagged
across the rotation boundary.

Hot keys feed back into the cache: the client passes the whole hot set
to :meth:`GatewayCache.pin_all` once per tick — extended leases, exempt
from LRU eviction, the gateway's "shield" — and they surface in the
operator report (``repro.obs.report``) as the gateway hotspots section.

**Shared-pin semantics (multi-tenant).**  The lease cache is one shared
structure per gateway process, so a pin is *tenant-blind by design*: when
tenant A's traffic makes ``/hot/path`` cross the threshold, the pinned
lease answers tenant B's lookups of the same path too.  That is the
correct economics — a lease is a fact about the namespace, not about who
asked, and sharing it multiplies the backend savings — but it means a
noisy tenant can *donate* cache benefit, never steal it: pins extend
TTLs and block eviction, they never consume another tenant's admission
tokens (admission fairness is enforced upstream, per tenant, in
``repro.gateway.admission``).  The detector therefore never sees a
tenant.  ``tests/unit/test_gateway_hotspot.py`` locks this contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush, heapreplace
from typing import AbstractSet, Dict, List, Optional, Set, Tuple


@dataclass(frozen=True)
class HeavyHitter:
    """One ranked hotspot: estimated count and max over-estimation."""

    key: str
    count: int
    error: int


class SpaceSavingSketch:
    """Fixed-size space-saving counter table.

    ``offer(key)`` is a constant number of dict operations for a monitored
    key or a table with room.  Once the table is full every offer of an
    unmonitored key evicts (under a uniform scan, nearly every offer), so
    the victim comes from ``_heap``: one ``(count, key)`` pair per
    monitored key.  A hit leaves the heap alone, so a pair may trail its
    key's count, never exceed it; an eviction refreshes stale pairs at the
    top until the top is current, and that pair is the table's smallest
    ``(count, key)`` — the victim a full scan picks, ties to the smallest
    key — at O(log capacity) per refresh.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._counts: Dict[str, int] = {}
        self._errors: Dict[str, int] = {}
        self._heap: List[Tuple[int, str]] = []

    def offer(self, key: str, amount: int = 1) -> Optional[str]:
        """Account one observation of ``key``.

        Returns the evicted key when the offer displaced a monitored
        counter, else None — the detector drops it from the hot set.
        """
        if amount < 1:
            raise ValueError(f"amount must be >= 1, got {amount}")
        counts = self._counts
        if key in counts:
            counts[key] += amount
            return None
        heap = self._heap
        if len(counts) < self.capacity:
            counts[key] = amount
            self._errors[key] = 0
            heappush(heap, (amount, key))
            return None
        # Evict the minimum counter; the newcomer inherits its count as
        # over-estimation error (ties broken by key for determinism).
        floor, victim = heap[0]
        while counts[victim] != floor:
            heapreplace(heap, (counts[victim], victim))
            floor, victim = heap[0]
        del counts[victim]
        del self._errors[victim]
        counts[key] = floor + amount
        self._errors[key] = floor
        heapreplace(heap, (floor + amount, key))
        return victim

    def estimate(self, key: str) -> int:
        """Estimated count (never an under-count; 0 if unmonitored)."""
        return self._counts.get(key, 0)

    def guaranteed(self, key: str) -> int:
        """Lower bound on the true count (estimate minus error)."""
        return self._counts.get(key, 0) - self._errors.get(key, 0)

    def top(self, k: int) -> List[HeavyHitter]:
        """The ``k`` largest counters, count-descending then key-ascending."""
        ranked = sorted(
            self._counts.items(), key=lambda item: (-item[1], item[0])
        )
        return [
            HeavyHitter(key=key, count=count, error=self._errors[key])
            for key, count in ranked[:k]
        ]

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: str) -> bool:
        return key in self._counts

    def __repr__(self) -> str:
        return f"SpaceSavingSketch(keys={len(self._counts)}/{self.capacity})"


class HotspotDetector:
    """Two-epoch sliding window over a space-saving sketch.

    Parameters
    ----------
    capacity:
        Counter budget per epoch sketch.
    window_s:
        Epoch length in virtual seconds; an observation influences the
        hot set for at most two windows.
    hot_threshold:
        Windowed estimate at which a key counts as hot (fixed for the
        detector's life).
    """

    def __init__(
        self,
        capacity: int = 64,
        window_s: float = 5.0,
        hot_threshold: int = 32,
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        if hot_threshold < 1:
            raise ValueError(f"hot_threshold must be >= 1, got {hot_threshold}")
        self.capacity = capacity
        self.window_s = window_s
        self.hot_threshold = hot_threshold
        self._current = SpaceSavingSketch(capacity)
        self._previous = SpaceSavingSketch(capacity)
        #: Every monitored key whose windowed estimate reaches the
        #: threshold, maintained incrementally: an observation can change
        #: the state of the observed key and of the key its offer evicted,
        #: nothing else; rotation rebuilds it.
        self._hot: Set[str] = set()
        self._epoch_start = 0.0
        self.rotations = 0

    def _rebuild_hot(self) -> None:
        # In place: a caller holding ``hot_set()`` keeps a live view.
        monitored = (*self._current._counts, *self._previous._counts)
        self._hot.clear()
        self._hot.update(
            key for key in monitored
            if self.estimate(key) >= self.hot_threshold
        )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _maybe_rotate(self, now: float) -> None:
        windows = int((now - self._epoch_start) // self.window_s)
        if windows < 1:
            return
        # One elapsed window ages the current epoch into the previous one;
        # after two or more, nothing offered since is left in either, so
        # every elapsed window is skipped in one step, whatever the gap.
        self._previous = (
            self._current if windows == 1 else SpaceSavingSketch(self.capacity)
        )
        self._current = SpaceSavingSketch(self.capacity)
        self._epoch_start += windows * self.window_s
        self.rotations += windows
        self._rebuild_hot()

    def observe(self, key: str, now: float) -> None:
        """Account one request for ``key`` at virtual time ``now``."""
        self._maybe_rotate(now)
        evicted = self._current.offer(key)
        if evicted is not None:
            # The evicted key keeps only its previous-epoch count.
            if self._previous.estimate(evicted) < self.hot_threshold:
                self._hot.discard(evicted)
        if self.estimate(key) >= self.hot_threshold:
            self._hot.add(key)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate(self, key: str) -> int:
        """Windowed estimate: current + previous epoch."""
        return self._current.estimate(key) + self._previous.estimate(key)

    def is_hot(self, key: str) -> bool:
        return key in self._hot

    def hot_keys(self) -> List[str]:
        """Every currently-hot key, sorted (deterministic)."""
        return sorted(self._hot)

    def hot_set(self) -> AbstractSet[str]:
        """The maintained hot set itself — a live, unordered view for
        per-tick callers; do not mutate."""
        return self._hot

    def top_k(self, k: int = 5) -> List[HeavyHitter]:
        """Top hotspots by windowed estimate (merged across both epochs)."""
        merged: Dict[str, Tuple[int, int]] = {}
        for sketch in (self._current, self._previous):
            for key, count in sketch._counts.items():
                total, error = merged.get(key, (0, 0))
                merged[key] = (total + count, error + sketch._errors[key])
        ranked = sorted(merged.items(), key=lambda item: (-item[1][0], item[0]))
        return [
            HeavyHitter(key=key, count=count, error=error)
            for key, (count, error) in ranked[:k]
        ]

    def __repr__(self) -> str:
        return (
            f"HotspotDetector(window={self.window_s}s, "
            f"threshold={self.hot_threshold}, rotations={self.rotations})"
        )
