"""Frozen reference: ``LRUBloomFilterArray`` as it stood before ISSUE 22 put
a transposed (bit-sliced) index under it.

``RefLRUBloomFilterArray`` is the parent commit's class body, verbatim
(only the class name gained a ``Ref`` prefix): ``query`` ANDs the item's
probe mask against *every* per-home counting filter's ``_nonzero`` mirror,
``probe_batch`` carries its own copy of that loop, and ``invalidate_home``
forgets a home by dropping its filter.  The counting filters, the hash
family and ``ArrayLookup`` are the live ones — ``CountingBloomFilter`` has
its own oracle in ``_reference_bloom.py``.
``tests/property/test_lru_differential.py`` drives this and the live class
through seeded scripts and compares every returned ``ArrayLookup``, the
hit / miss counters, the entries in order and every filter's counters with
``==`` — so do not "fix" or modernize this file; it is the oracle, like
``_reference_gateway_cache.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bloom.arrays import REPLACEMENT_POLICIES, ArrayLookup
from repro.bloom.counting import CountingBloomFilter


class RefLRUBloomFilterArray:
    """The L1 array: a bounded cache of hot ``file → home MDS`` mappings.

    The ground truth is a capacity-bounded dictionary evicted by the chosen
    replacement policy (LRU by default, as in the paper).  For faithful
    Bloom-filter semantics, each home MDS is additionally summarized by a
    counting Bloom filter over the hot files it owns; queries probe the
    filters (so false positives can and do occur), and evictions decrement
    counters so the filters track the cache contents exactly.

    Parameters
    ----------
    capacity:
        Maximum number of hot entries retained.
    filter_bits:
        Counter cells per per-MDS filter.
    num_hashes:
        Hash functions per filter.
    seed:
        Hash family seed.
    policy:
        ``"lru"`` (recency, the paper's choice), ``"fifo"`` (insertion
        order, no refresh) or ``"lfu"`` (least frequently used; ties evict
        the newest entry — including the just-admitted one — so one-hit
        wonders never displace established entries, and ghost frequency
        counts let repeatedly requested items win admission eventually).
    """

    def __init__(
        self,
        capacity: int,
        filter_bits: int = 4096,
        num_hashes: int = 6,
        seed: int = 0,
        policy: str = "lru",
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if policy not in REPLACEMENT_POLICIES:
            raise ValueError(
                f"policy must be one of {REPLACEMENT_POLICIES}, got {policy!r}"
            )
        self._capacity = capacity
        self._filter_bits = filter_bits
        self._num_hashes = num_hashes
        self._seed = seed
        self._policy = policy
        # Insertion order doubles as the recency order (refreshed via
        # pop + reinsert); a plain dict is faster than OrderedDict here.
        self._entries: Dict[object, int] = {}
        self._use_counts: Dict[object, int] = {}
        self._is_lfu = policy == "lfu"
        self._is_fifo = policy == "fifo"
        self._is_lru = policy == "lru"
        self._empty_lru_lookup: Optional[ArrayLookup] = None
        self._hits = 0
        self._misses = 0
        self._filters: Dict[int, CountingBloomFilter] = {}

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def policy(self) -> str:
        return self._policy

    @property
    def num_filters(self) -> int:
        """Number of per-home counting filters currently held."""
        return len(self._filters)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        """Unique-hit count since construction (for hit-rate metrics)."""
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    def hit_rate(self) -> float:
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _filter_for(self, home_id: int) -> CountingBloomFilter:
        bloom = self._filters.get(home_id)
        if bloom is None:
            bloom = CountingBloomFilter(
                self._filter_bits, self._num_hashes, self._seed
            )
            self._filters[home_id] = bloom
        return bloom

    def record(self, item: object, home_id: int) -> None:
        """Record that ``item`` was resolved to ``home_id`` (query success).

        Under LRU, existing entries are refreshed (moved to the MRU
        position); under FIFO they keep their insertion rank; under LFU
        their use count increments.  If the home changed (metadata
        migrated), the stale mapping is replaced.  Capacity overflow evicts
        one victim by policy and clears its filter bits.
        """
        if self._is_fifo and item in self._entries:
            previous = self._entries[item]
            if previous != home_id:
                self._filters[previous].discard(item)
                self._entries[item] = home_id
                self._filter_for(home_id).add(item)
            return
        previous = self._entries.pop(item, None)
        if previous is not None and previous != home_id:
            self._filters[previous].discard(item)
            previous = None
        self._entries[item] = home_id
        if self._is_lfu:
            # Use counts only drive LFU victim selection; skip the
            # bookkeeping entirely under LRU/FIFO.
            self._use_counts[item] = self._use_counts.get(item, 0) + 1
        if previous is None:
            self._filter_for(home_id).add(item)
        if len(self._entries) > self._capacity:
            self._evict_one()

    def _pick_victim(self) -> object:
        if self._is_lfu:
            # Least frequently used; ties evict the *newest* entry, so
            # established entries keep tenure instead of thrashing when a
            # scan floods the cache with count-1 items.
            victim = None
            victim_key = None
            for position, item in enumerate(self._entries):
                key = (self._use_counts.get(item, 0), -position)
                if victim_key is None or key < victim_key:
                    victim_key = key
                    victim = item
            return victim
        # LRU and FIFO both evict the oldest entry in ``_entries`` order
        # (LRU refreshes order on use; FIFO never does).
        return next(iter(self._entries))

    def _evict_one(self) -> None:
        item = self._pick_victim()
        home_id = self._entries.pop(item)
        if self._is_lfu:
            # Keep a ghost frequency count so a repeatedly requested item
            # eventually out-scores incumbents and gets admitted (TinyLFU
            # style); bound the ghost table to a multiple of capacity.
            # (Under LRU/FIFO ``_use_counts`` is never written, so there
            # is nothing to drop.)
            if len(self._use_counts) > 8 * self._capacity:
                self._use_counts = {
                    key: count
                    for key, count in self._use_counts.items()
                    if key in self._entries
                }
        self._filters[home_id].discard(item)

    def invalidate(self, item: object) -> bool:
        """Drop ``item`` from the cache (e.g. after a false forward)."""
        home_id = self._entries.pop(item, None)
        if home_id is None:
            return False
        self._use_counts.pop(item, None)
        self._filters[home_id].discard(item)
        return True

    def invalidate_home(self, home_id: int) -> int:
        """Drop every entry pointing at ``home_id`` (MDS departure).

        Returns the number of entries removed.
        """
        victims = [
            item for item, home in self._entries.items() if home == home_id
        ]
        for item in victims:
            del self._entries[item]
            self._use_counts.pop(item, None)
        self._filters.pop(home_id, None)
        return len(victims)

    def clear(self) -> None:
        self._entries.clear()
        self._use_counts.clear()
        self._filters.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, item: object) -> ArrayLookup:
        """Probe the per-MDS counting filters (L1 lookup).

        Updates the hit/miss counters used for Figure 13's per-level rates.
        Every per-home filter is built by :meth:`_filter_for` with one
        geometry, so they all share one interned hash family and the probe
        mask is computed exactly once.
        """
        hits_list: List[int] = []
        filters = self._filters
        if filters:
            mask = next(iter(filters.values()))._hashes.mask(item)
            for home_id, bloom in filters.items():
                if (bloom._nonzero & mask) == mask:
                    hits_list.append(home_id)
        probes = len(filters)
        if hits_list:
            if len(hits_list) == 1:
                self._hits += 1
            else:
                self._misses += 1
            return ArrayLookup(hits=tuple(hits_list), probes=probes)
        self._misses += 1
        empty = self._empty_lru_lookup
        if empty is None or empty.probes != probes:
            empty = ArrayLookup(hits=(), probes=probes)
            self._empty_lru_lookup = empty
        return empty

    def probe_batch(self, items: Sequence[object]) -> List[ArrayLookup]:
        """Batched :meth:`query` over the per-home counting filters.

        Updates the hit/miss statistics exactly as per-item :meth:`query`
        calls would.
        """
        filters = list(self._filters.items())
        probes = len(filters)
        mask_of = filters[0][1]._hashes.mask if filters else None
        out: List[ArrayLookup] = []
        for item in items:
            hits_list: List[int] = []
            if filters:
                mask = mask_of(item)
                for home_id, bloom in filters:
                    if (bloom._nonzero & mask) == mask:
                        hits_list.append(home_id)
            out.append(ArrayLookup(hits=tuple(hits_list), probes=probes))
            if len(hits_list) == 1:
                self._hits += 1
            else:
                self._misses += 1
        return out

    def touch(self, item: object) -> None:
        """Register a use of ``item`` without changing its mapping.

        Refreshes recency under LRU, bumps the use count under LFU, and is
        a no-op under FIFO.
        """
        if item not in self._entries:
            return
        if self._is_lfu:
            self._use_counts[item] = self._use_counts.get(item, 0) + 1
        if self._is_lru:
            home_id = self._entries.pop(item)
            self._entries[item] = home_id

    def peek(self, item: object) -> Optional[int]:
        """Ground-truth lookup (no Bloom probing, no stat updates)."""
        return self._entries.get(item)

    def size_bytes(self) -> int:
        """Footprint of the per-home filters, at O(1): :meth:`_filter_for`
        builds every one of them with one geometry and counter width."""
        filters = self._filters
        if not filters:
            return 0
        return len(filters) * next(iter(filters.values())).size_bytes()

    def __repr__(self) -> str:
        return (
            f"LRUBloomFilterArray(capacity={self._capacity}, "
            f"entries={len(self._entries)}, homes={len(self._filters)})"
        )
