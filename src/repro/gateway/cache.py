"""Lease-based client metadata cache: path → (home MDS, record).

Entries carry a TTL *lease* in virtual seconds; a fresh lease means the
gateway may answer without touching the MDS fleet.  Expired entries are
retained (until LRU eviction) as *predictions* — their last-known home MDS
seeds the multi-key batched verification in :mod:`repro.gateway.coalesce`.

Negative results (path does not exist anywhere) are cached too, under a
separate — typically much shorter — TTL, so repeated lookups of a missing
path do not hammer the L4 global multicast.

Coherence rules (see DESIGN.md §9):

- ``create``/``delete`` invalidate the exact path (a create also kills a
  cached negative entry; a delete kills a cached positive one).
- ``rename`` of a directory invalidates the *whole subtree* under both the
  old and the new prefix — the classic stale-subtree bug is the thing the
  rename-correctness tests pin down.
- A server leaving the cluster (graceful or crash) invalidates every entry
  whose lease points at it.
- Degraded backend answers (fault injection) must never be inserted; the
  client enforces that, the cache just provides the API.

Hot entries (flagged by :mod:`repro.gateway.hotspot`) are *pinned*: they
get extended leases and are exempt from LRU eviction, shielding the MDS
fleet from the heaviest hitters even under cache pressure.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Iterable, List, Optional

from repro.metadata.attributes import FileMetadata
from repro.metadata.namespace import is_under


@dataclass
class CacheEntry:
    """One cached lease; ``home_id``/``record`` are ``None`` for negative
    entries."""

    path: str
    home_id: Optional[int]
    record: Optional[FileMetadata]
    expires_at: float
    negative: bool = False
    pinned: bool = False
    #: Backend path version at install time (``None`` when the installer
    #: did not learn one) — the base the write-back buffer stamps on
    #: mutations so the home MDS can arbitrate version races.
    backend_version: Optional[int] = None
    #: The answer to every fresh hit on this entry, built at the first
    #: (path, home, record and sign never change once installed).  Not a
    #: field: the instance shadows this default, unseen by ``==``.
    hit_lookup: ClassVar[Optional["CacheLookup"]] = None

    def fresh(self, now: float) -> bool:
        return now < self.expires_at


@dataclass(frozen=True)
class CacheLookup:
    """Outcome of one cache probe.

    ``hit`` is True only for a fresh lease.  ``predicted_home`` is the
    last-known home MDS from an expired (but retained) positive entry —
    the batcher's routing hint; ``None`` when the cache knows nothing.
    """

    path: str
    hit: bool = False
    negative: bool = False
    home_id: Optional[int] = None
    record: Optional[FileMetadata] = None
    predicted_home: Optional[int] = None


@dataclass
class CacheStats:
    """Plain tallies; the client mirrors them into the metrics registry."""

    hits: int = 0
    negative_hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: Dict[str, int] = field(default_factory=dict)

    def count_invalidation(self, cause: str, amount: int = 1) -> None:
        self.invalidations[cause] = self.invalidations.get(cause, 0) + amount


class GatewayCache:
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
        #: The unpinned subset of ``_entries``, in the same recency order —
        #: its head is the eviction victim, so an install never walks the
        #: pinned entries.  Every method that adds, drops, touches or
        #: (un)pins an entry keeps the two orders in step.
        self._unpinned: "OrderedDict[str, None]" = OrderedDict()
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
            if not entry.pinned:
                self._unpinned.move_to_end(path)
            if entry.negative:
                self.stats.negative_hits += 1
            else:
                self.stats.hits += 1
            lookup = entry.hit_lookup
            if lookup is None:
                lookup = entry.hit_lookup = CacheLookup(
                    path=path,
                    hit=True,
                    negative=entry.negative,
                    home_id=entry.home_id,
                    record=entry.record,
                )
            return lookup
        self.stats.misses += 1
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
            self._unpinned.pop(entry.path, None)
            # A refresh never *loses* the pin a hot entry earned.
            entry.pinned = entry.pinned or (previous.pinned and not entry.negative)
        self._entries[entry.path] = entry
        if not entry.pinned:
            self._unpinned[entry.path] = None
        while len(self._entries) > self.capacity:
            # The least-recent unpinned entry goes (the newcomer itself
            # when it is the only one).  Degenerate case, everything
            # pinned: the oldest entry, rather than growing without bound.
            if self._unpinned:
                del self._entries[self._unpinned.popitem(last=False)[0]]
            else:
                self._entries.popitem(last=False)
            self.stats.evictions += 1
        return entry

    # ------------------------------------------------------------------
    # Hot-entry shielding
    # ------------------------------------------------------------------
    def pin(self, path: str, now: float) -> bool:
        """Mark ``path`` hot: pin it against eviction and extend its lease
        (:meth:`pin_all` with ``extend=True``).

        Returns True when an entry existed to pin.
        """
        return self.pin_all((path,), now, True) == 1

    def pin_all(self, paths: Iterable[str], now: float, extend: bool) -> int:
        """Pin every path of ``paths`` against eviction (the shield
        refresh: one call per tick for the whole hot set); returns how
        many had an entry to pin.  The outcome does not depend on
        iteration order.

        ``extend=True`` renews each lease *without re-validation*, which
        is only safe when an external coherence channel (the cluster
        mutation hook) invalidates the entry on every mutation.  A
        hook-less gateway — a cohort member or an independent deployment
        — must pass ``extend=False``: repeated touch-renewal would keep
        a hot lease alive forever and serve it stale without bound, the
        exact failure the staleness harness exists to catch.  Pinned,
        unextended entries still expire on schedule and re-earn their
        (hot) TTL at the next validated install.
        """
        limit = None
        if extend:
            extension = self.hot_lease_ttl_s
            if self.ttl_clamp_s is not None:
                extension = min(extension, self.ttl_clamp_s)
            limit = now + extension
        entries = self._entries
        pinned = 0
        for path in paths:
            entry = entries.get(path)
            if entry is None or entry.negative:
                continue
            pinned += 1
            if not entry.pinned:
                entry.pinned = True
                del self._unpinned[path]
            if limit is not None and entry.expires_at < limit:
                entry.expires_at = limit
        return pinned

    def unpin(self, path: str) -> None:
        """Release ``path``'s pin; it competes for eviction again from
        its true recency position.  O(n) — nothing on the serving path
        calls it (DESIGN.md §9: pins are currently never released)."""
        entry = self._entries.get(path)
        if entry is not None and entry.pinned:
            entry.pinned = False
            self._unpinned = OrderedDict(
                (p, None) for p, e in self._entries.items() if not e.pinned
            )

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
            self._unpinned.pop(path, None)
            self.stats.count_invalidation(cause)
            return True
        return False

    def invalidate_subtree(self, prefix: str, cause: str = "rename") -> int:
        """Drop ``prefix`` and every cached descendant of it.

        This is the rename rule: after ``rename /a /b`` the gateway must
        forget every cached lease under ``/a`` — each one names a path
        that no longer exists (and whose record content is stale).
        """
        victims = [path for path in self._entries if is_under(path, prefix)]
        return self._drop(victims, cause)

    def invalidate_home(self, server_id: int, cause: str = "server_lost") -> int:
        """Drop every lease pointing at ``server_id`` (it left the fleet)."""
        victims = [
            path
            for path, entry in self._entries.items()
            if entry.home_id == server_id
        ]
        return self._drop(victims, cause)

    def _drop(self, victims: List[str], cause: str) -> int:
        for path in victims:
            del self._entries[path]
            self._unpinned.pop(path, None)
        if victims:
            self.stats.count_invalidation(cause, len(victims))
        return len(victims)

    def clear(self) -> None:
        self._entries.clear()
        self._unpinned.clear()

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
