"""Frozen reference: the gateway lease cache and hotspot detector as they
stood before ISSUE 13 made their per-lookup steps constant-time.

``RefGatewayCache`` evicts by copying and walking every entry
(``list(self._entries)``), ``RefHotspotDetector.hot_keys`` rebuilds and
sorts the hot set on every call, and ``RefSpaceSavingSketch.offer`` finds
its minimum through a Python lambda per counter.  The class bodies are
verbatim copies (only the class names gained a ``Ref`` prefix; the value
types are imported from the live modules, which did not change them).
``tests/property/test_gateway_cache_differential.py`` replays seeded op
sequences through both and diffs every observable after every op — so do
not "fix" or modernize this file; it is the oracle, like
``_reference_admission.py`` and ``_reference_bloom.py``.  In particular
``unpin`` still has no production caller here either: pins are never
released (DESIGN.md §9, known defect).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.gateway.cache import CacheEntry, CacheLookup, CacheStats
from repro.gateway.hotspot import DEFAULT_TENANT, HeavyHitter
from repro.metadata.attributes import FileMetadata


class RefGatewayCache:
    """LRU cache of leases with subtree-aware invalidation.

    Parameters
    ----------
    capacity:
        Maximum entries (pinned entries do not count toward eviction
        pressure but do count toward capacity; eviction skips them).
    lease_ttl_s:
        Lease duration of ordinary positive entries, in virtual seconds.
    negative_ttl_s:
        Lease duration of negative entries (shorter: a missing file may
        appear at any moment and negatives are cheap to re-resolve).
    hot_lease_ttl_s:
        Extended lease granted to entries flagged hot.
    """

    def __init__(
        self,
        capacity: int = 4096,
        lease_ttl_s: float = 5.0,
        negative_ttl_s: float = 0.5,
        hot_lease_ttl_s: float = 30.0,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if lease_ttl_s <= 0 or negative_ttl_s <= 0 or hot_lease_ttl_s <= 0:
            raise ValueError("TTLs must be positive")
        self.capacity = capacity
        self.lease_ttl_s = lease_ttl_s
        self.negative_ttl_s = negative_ttl_s
        self.hot_lease_ttl_s = hot_lease_ttl_s
        #: Active TTL clamp in virtual seconds (None when released).  While
        #: set, every lease — existing, refreshed or pinned — expires within
        #: the clamp; the cohort tier engages it when invalidations from a
        #: peer gateway may be lost (partition), bounding staleness.
        self.ttl_clamp_s: Optional[float] = None
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, path: str, now: float) -> CacheLookup:
        """Probe the cache at virtual time ``now``.

        A fresh lease is a hit (and refreshes LRU recency).  An expired
        entry is a miss that still reports ``predicted_home`` so the
        caller can route a cheap direct verification.
        """
        entry = self._entries.get(path)
        if entry is None:
            self.stats.misses += 1
            return CacheLookup(path=path)
        if entry.fresh(now):
            self._entries.move_to_end(path)
            if entry.negative:
                self.stats.negative_hits += 1
                return CacheLookup(path=path, hit=True, negative=True)
            self.stats.hits += 1
            return CacheLookup(
                path=path,
                hit=True,
                home_id=entry.home_id,
                record=entry.record,
            )
        self.stats.misses += 1
        self.stats.expired += 1
        predicted = None if entry.negative else entry.home_id
        return CacheLookup(path=path, predicted_home=predicted)

    def peek(self, path: str) -> Optional[CacheEntry]:
        """The raw entry (fresh or stale) without touching stats/recency."""
        return self._entries.get(path)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def put(
        self,
        path: str,
        home_id: int,
        record: Optional[FileMetadata],
        now: float,
        hot: bool = False,
        backend_version: Optional[int] = None,
    ) -> CacheEntry:
        """Install (or refresh) a positive lease."""
        ttl = self.hot_lease_ttl_s if hot else self.lease_ttl_s
        if self.ttl_clamp_s is not None:
            ttl = min(ttl, self.ttl_clamp_s)
        return self._install(
            CacheEntry(
                path=path,
                home_id=home_id,
                record=record,
                expires_at=now + ttl,
                pinned=hot,
                backend_version=backend_version,
            )
        )

    def put_negative(
        self,
        path: str,
        now: float,
        backend_version: Optional[int] = None,
    ) -> CacheEntry:
        """Install (or refresh) a negative lease (path exists nowhere)."""
        ttl = self.negative_ttl_s
        if self.ttl_clamp_s is not None:
            ttl = min(ttl, self.ttl_clamp_s)
        return self._install(
            CacheEntry(
                path=path,
                home_id=None,
                record=None,
                expires_at=now + ttl,
                negative=True,
                backend_version=backend_version,
            )
        )

    def _install(self, entry: CacheEntry) -> CacheEntry:
        previous = self._entries.pop(entry.path, None)
        if previous is not None:
            entry.version = previous.version + 1
            # A refresh never *loses* the pin a hot entry earned.
            entry.pinned = entry.pinned or (previous.pinned and not entry.negative)
        self._entries[entry.path] = entry
        self.stats.insertions += 1
        self._evict_over_capacity()
        return entry

    def _evict_over_capacity(self) -> None:
        """Evict least-recent unpinned entries down to capacity."""
        if len(self._entries) <= self.capacity:
            return
        for path in list(self._entries):
            if len(self._entries) <= self.capacity:
                break
            entry = self._entries[path]
            if entry.pinned:
                continue
            del self._entries[path]
            self.stats.evictions += 1
        # Degenerate case: everything pinned.  Evict oldest pinned entries
        # rather than growing without bound.
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Hot-entry shielding
    # ------------------------------------------------------------------
    def pin(self, path: str, now: float, extend: bool = True) -> bool:
        """Mark ``path`` hot: pin it against eviction, optionally
        extending its lease.

        ``extend=True`` renews the lease *without re-validation*, which
        is only safe when an external coherence channel (the cluster
        mutation hook) invalidates this entry on every mutation.  A
        hook-less gateway — a cohort member or an independent deployment
        — must pass ``extend=False``: repeated touch-renewal would keep
        a hot lease alive forever and serve it stale without bound, the
        exact failure the staleness harness exists to catch.  Pinned,
        unextended entries still expire on schedule and re-earn their
        (hot) TTL at the next validated install.

        Returns True when an entry existed to pin.
        """
        entry = self._entries.get(path)
        if entry is None or entry.negative:
            return False
        entry.pinned = True
        if extend:
            extension = self.hot_lease_ttl_s
            if self.ttl_clamp_s is not None:
                extension = min(extension, self.ttl_clamp_s)
            entry.expires_at = max(entry.expires_at, now + extension)
        return True

    def unpin(self, path: str) -> None:
        entry = self._entries.get(path)
        if entry is not None:
            entry.pinned = False

    def pinned_paths(self) -> List[str]:
        return sorted(p for p, e in self._entries.items() if e.pinned)

    # ------------------------------------------------------------------
    # TTL clamp (graceful degradation while invalidations may be lost)
    # ------------------------------------------------------------------
    def clamp_ttl(self, clamp_s: float, now: float) -> int:
        """Cap every lease — current and future — to ``clamp_s`` of life.

        Engaged by the cohort tier while a peer gateway is suspected
        unreachable: remote mutations may not arrive as invalidations, so
        no lease may outlive the clamp.  Returns the number of existing
        entries whose expiry was shortened.
        """
        if clamp_s <= 0:
            raise ValueError(f"clamp_s must be positive, got {clamp_s}")
        self.ttl_clamp_s = clamp_s
        limit = now + clamp_s
        shortened = 0
        for entry in self._entries.values():
            if entry.expires_at > limit:
                entry.expires_at = limit
                shortened += 1
        self.stats.clamped += shortened
        return shortened

    def release_ttl_clamp(self) -> None:
        """Lift the clamp; already-shortened leases keep their expiry."""
        self.ttl_clamp_s = None

    # ------------------------------------------------------------------
    # Invalidation (the coherence surface)
    # ------------------------------------------------------------------
    def invalidate(self, path: str, cause: str = "mutation") -> bool:
        """Drop the entry for ``path``; True when something was dropped."""
        if self._entries.pop(path, None) is not None:
            self.stats.count_invalidation(cause)
            return True
        return False

    def invalidate_subtree(self, prefix: str, cause: str = "rename") -> int:
        """Drop ``prefix`` and every cached descendant of it.

        This is the rename rule: after ``rename /a /b`` the gateway must
        forget every cached lease under ``/a`` — each one names a path
        that no longer exists (and whose record content is stale).
        """
        victims = [
            path
            for path in self._entries
            if path == prefix or path.startswith(prefix + "/")
        ]
        for path in victims:
            del self._entries[path]
        if victims:
            self.stats.count_invalidation(cause, len(victims))
        return len(victims)

    def invalidate_home(self, server_id: int, cause: str = "server_lost") -> int:
        """Drop every lease pointing at ``server_id`` (it left the fleet)."""
        victims = [
            path
            for path, entry in self._entries.items()
            if entry.home_id == server_id
        ]
        for path in victims:
            del self._entries[path]
        if victims:
            self.stats.count_invalidation(cause, len(victims))
        return len(victims)

    def clear(self) -> None:
        self._entries.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, path: str) -> bool:
        return path in self._entries

    def hit_rate(self) -> float:
        """Fresh hits (positive + negative) over all probes."""
        total = self.stats.hits + self.stats.negative_hits + self.stats.misses
        if total == 0:
            return 0.0
        return (self.stats.hits + self.stats.negative_hits) / total

    def __repr__(self) -> str:
        return (
            f"GatewayCache(entries={len(self._entries)}/{self.capacity}, "
            f"hit_rate={self.hit_rate():.3f})"
        )


class RefSpaceSavingSketch:
    """Fixed-size space-saving counter table.

    ``offer(key)`` is O(1) amortized on dict operations plus an O(capacity)
    min-scan on eviction; fine at the gateway's capacities (tens to a few
    thousand counters).
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._counts: Dict[str, int] = {}
        self._errors: Dict[str, int] = {}
        self.observed = 0

    def offer(self, key: str, amount: int = 1) -> Optional[str]:
        """Account one observation of ``key``.

        Returns the evicted key when the offer displaced a monitored
        counter, else None — callers keeping per-key side state (the
        detector's tenant attribution) prune on it.
        """
        if amount < 1:
            raise ValueError(f"amount must be >= 1, got {amount}")
        self.observed += amount
        if key in self._counts:
            self._counts[key] += amount
            return None
        if len(self._counts) < self.capacity:
            self._counts[key] = amount
            self._errors[key] = 0
            return None
        # Evict the minimum counter; the newcomer inherits its count as
        # over-estimation error (ties broken by key for determinism).
        victim = min(self._counts, key=lambda k: (self._counts[k], k))
        floor = self._counts.pop(victim)
        self._errors.pop(victim)
        self._counts[key] = floor + amount
        self._errors[key] = floor
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
        return (
            f"SpaceSavingSketch(keys={len(self._counts)}/{self.capacity}, "
            f"observed={self.observed})"
        )


class RefHotspotDetector:
    """Two-epoch sliding window over a space-saving sketch.

    Parameters
    ----------
    capacity:
        Counter budget per epoch sketch.
    window_s:
        Epoch length in virtual seconds; an observation influences the
        hot set for at most two windows.
    hot_threshold:
        Windowed estimate at which a key counts as hot.
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
            raise ValueError(
                f"hot_threshold must be >= 1, got {hot_threshold}"
            )
        self.capacity = capacity
        self.window_s = window_s
        self.hot_threshold = hot_threshold
        self._current = RefSpaceSavingSketch(capacity)
        self._previous = RefSpaceSavingSketch(capacity)
        # Per-tenant attribution of each monitored key's heat, one map
        # per epoch, pruned in lockstep with sketch evictions so memory
        # stays bounded by ``2 × capacity`` keys.
        self._current_tenants: Dict[str, Dict[str, int]] = {}
        self._previous_tenants: Dict[str, Dict[str, int]] = {}
        self._epoch_start = 0.0
        self.rotations = 0

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _maybe_rotate(self, now: float) -> None:
        while now - self._epoch_start >= self.window_s:
            self._previous = self._current
            self._current = RefSpaceSavingSketch(self.capacity)
            self._previous_tenants = self._current_tenants
            self._current_tenants = {}
            self._epoch_start += self.window_s
            self.rotations += 1

    def observe(
        self, key: str, now: float, tenant: str = DEFAULT_TENANT
    ) -> None:
        """Account one request for ``key`` at virtual time ``now``.

        ``tenant`` attributes the heat for observability; it never
        changes what is hot (the shield is shared — see module docs).
        """
        self._maybe_rotate(now)
        evicted = self._current.offer(key)
        if evicted is not None:
            self._current_tenants.pop(evicted, None)
        per_tenant = self._current_tenants.setdefault(key, {})
        per_tenant[tenant] = per_tenant.get(tenant, 0) + 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate(self, key: str) -> int:
        """Windowed estimate: current + previous epoch."""
        return self._current.estimate(key) + self._previous.estimate(key)

    def is_hot(self, key: str) -> bool:
        return self.estimate(key) >= self.hot_threshold

    def hot_keys(self) -> List[str]:
        """Every currently-hot key, sorted (deterministic)."""
        keys = set(self._counts_union())
        return sorted(k for k in keys if self.is_hot(k))

    def _counts_union(self) -> List[str]:
        return list(self._current._counts) + [
            k for k in self._previous._counts if k not in self._current._counts
        ]

    def tenant_counts(self, key: str) -> Dict[str, int]:
        """Windowed per-tenant attribution of ``key``'s heat.

        Only meaningful while ``key`` is monitored; an evicted or
        rotated-out key returns {} (attribution is bounded best-effort,
        exactly like the sketch estimates it annotates).
        """
        merged: Dict[str, int] = {}
        for epoch in (self._current_tenants, self._previous_tenants):
            for tenant, count in epoch.get(key, {}).items():
                merged[tenant] = merged.get(tenant, 0) + count
        return merged

    def dominant_tenant(self, key: str) -> Optional[str]:
        """The tenant contributing the most heat to ``key`` (ties by
        name; None when the key carries no attribution)."""
        counts = self.tenant_counts(key)
        if not counts:
            return None
        return min(counts, key=lambda t: (-counts[t], t))

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
