"""Frozen reference: ``LRUBloomFilterArray`` as it stood before ISSUE 22 put
a transposed (bit-sliced) index under it, with the counting filter and the
hash family it probed.

``RefLRUBloomFilterArray`` is that commit's class body, verbatim (only the
class name gained a ``Ref`` prefix): ``query`` ANDs the item's probe mask
against *every* per-home counting filter's ``_nonzero`` mirror,
``probe_batch`` carries its own copy of that loop, and ``invalidate_home``
forgets a home by dropping its filter.  ISSUE 23 took the mirror out of the
live ``CountingBloomFilter`` and ``probe()`` out of the live ``HashFamily``,
so the two classes this one was written against are frozen here too, as
they stood at the commit before: ``HashFamily`` / ``shared_family`` (one
memo of ``(indices, mask)`` pairs) and ``CountingBloomFilter`` (counters
plus the packed non-zero mirror), bodies verbatim.  Only ``ArrayLookup``,
``REPLACEMENT_POLICIES`` and the plain ``BloomFilter`` that
``to_bloom_filter`` projects to are live.
``tests/property/test_lru_differential.py`` drives this and the live class
through seeded scripts and compares every returned ``ArrayLookup``, the
hit / miss counters, the entries in order and every filter's counters with
``==`` — so do not "fix" or modernize this file; it is the oracle, like
``_reference_gateway_cache.py``.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bloom.arrays import REPLACEMENT_POLICIES, ArrayLookup
from repro.bloom.bloom_filter import BloomFilter

#: Per-family bound on memoized probes.  Sized to hold the hot set of the
#: bench workloads (thousands of distinct paths) with slack; at ~200 bytes
#: per entry the worst case is a few MB per geometry.
PROBE_CACHE_CAPACITY = 1 << 16


def _digest64(data: bytes, salt: bytes) -> int:
    """Return a 64-bit digest of ``data`` salted with ``salt``."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8, key=salt).digest(), "big"
    )


class HashFamily:
    """``k`` index functions over ``[0, m)`` via double hashing.

    Parameters
    ----------
    num_hashes:
        Number of index functions (``k``).
    num_bits:
        Size of the target bit space (``m``).
    seed:
        Integer seed; families with equal ``(num_hashes, num_bits, seed)``
        are interchangeable.
    """

    __slots__ = (
        "_num_hashes",
        "_num_bits",
        "_seed",
        "_salt1",
        "_salt2",
        "_probe_cache",
    )

    def __init__(self, num_hashes: int, num_bits: int, seed: int = 0) -> None:
        if num_hashes <= 0:
            raise ValueError(f"num_hashes must be positive, got {num_hashes}")
        if num_bits <= 0:
            raise ValueError(f"num_bits must be positive, got {num_bits}")
        self._num_hashes = num_hashes
        self._num_bits = num_bits
        self._seed = seed
        self._salt1 = seed.to_bytes(8, "big", signed=True) + b"\x01"
        self._salt2 = seed.to_bytes(8, "big", signed=True) + b"\x02"
        self._probe_cache: Dict[object, Tuple[Tuple[int, ...], int]] = {}

    @property
    def num_hashes(self) -> int:
        return self._num_hashes

    @property
    def num_bits(self) -> int:
        return self._num_bits

    @property
    def seed(self) -> int:
        return self._seed

    def _encode(self, item: object) -> bytes:
        if isinstance(item, bytes):
            return item
        if isinstance(item, str):
            return item.encode("utf-8")
        if isinstance(item, int):
            return item.to_bytes(16, "big", signed=True)
        raise TypeError(
            f"items must be str, bytes or int, got {type(item).__name__}"
        )

    def _compute(self, item: object) -> Tuple[Tuple[int, ...], int]:
        data = self._encode(item)
        h1 = _digest64(data, self._salt1)
        h2 = _digest64(data, self._salt2)
        # An even h2 could cycle through a strict subset of positions when m
        # is even; forcing it odd keeps the probe sequence well distributed.
        h2 |= 1
        m = self._num_bits
        indices = tuple((h1 + i * h2) % m for i in range(self._num_hashes))
        mask = 0
        for index in indices:
            mask |= 1 << index
        return indices, mask

    def probe(self, item: object) -> Tuple[Tuple[int, ...], int]:
        """Return (and memoize) ``(indices, mask)`` for ``item``.

        ``mask`` is the OR of ``1 << i`` over the ``k`` indices — the
        single-int form consumed by
        :meth:`~repro.bloom.bitvector.BitVector.contains_mask`.
        """
        cache = self._probe_cache
        entry = cache.get(item)
        if entry is None:
            if len(cache) >= PROBE_CACHE_CAPACITY:
                # Drop the oldest (insertion-ordered) half in one pass.
                for key in list(cache)[: PROBE_CACHE_CAPACITY // 2]:
                    del cache[key]
            entry = self._compute(item)
            # bytes/str/int keys only (enforced by _encode), so the item
            # itself is a safe, hashable cache key.
            cache[item] = entry
        return entry

    def mask(self, item: object) -> int:
        """The packed probe mask of ``item`` (memoized)."""
        entry = self._probe_cache.get(item)
        if entry is None:
            entry = self.probe(item)
        return entry[1]

    def indices(self, item: object) -> List[int]:
        """Return the ``k`` bit indices for ``item``."""
        return list(self.probe(item)[0])

    def cache_info(self) -> Tuple[int, int]:
        """``(entries, capacity)`` of the probe cache (for introspection)."""
        return len(self._probe_cache), PROBE_CACHE_CAPACITY

    def parameters(self) -> Tuple[int, int, int]:
        """Return ``(num_hashes, num_bits, seed)``."""
        return (self._num_hashes, self._num_bits, self._seed)

    def is_compatible(self, other: "HashFamily") -> bool:
        """True if both families map items to identical index sequences."""
        return self.parameters() == other.parameters()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashFamily):
            return NotImplemented
        return self.parameters() == other.parameters()

    def __hash__(self) -> int:
        return hash(self.parameters())

    def __repr__(self) -> str:
        return (
            f"HashFamily(num_hashes={self._num_hashes}, "
            f"num_bits={self._num_bits}, seed={self._seed})"
        )


# ----------------------------------------------------------------------
# Interning — one family (and one probe cache) per geometry
# ----------------------------------------------------------------------
_SHARED_FAMILIES: Dict[Tuple[int, int, int], HashFamily] = {}


def shared_family(num_hashes: int, num_bits: int, seed: int = 0) -> HashFamily:
    """Return the canonical :class:`HashFamily` for this geometry.

    Filters share hash state purely by value (`parameters()`), so handing
    every same-geometry filter the same instance is semantically
    invisible — it only fuses their probe caches, which is exactly what
    the replica fan-out wants: the L3 multicast probes ~N replicas of
    identical geometry with the same key.
    """
    key = (num_hashes, num_bits, seed)
    family = _SHARED_FAMILIES.get(key)
    if family is None:
        family = HashFamily(num_hashes, num_bits, seed)
        _SHARED_FAMILIES[key] = family
    return family


class CountingBloomFilter:
    """A Bloom filter whose positions are counters, supporting deletion.

    Parameters
    ----------
    num_counters:
        Number of counter cells (the ``m`` of the equivalent plain filter).
    num_hashes:
        Number of hash functions (``k``).
    seed:
        Hash family seed.
    counter_bits:
        Width of each counter; counters saturate at ``2**counter_bits - 1``
        rather than overflowing (4 bits is the classic choice and overflows
        with negligible probability).
    """

    __slots__ = ("_counters", "_nonzero", "_hashes", "_num_items", "_max_count")

    def __init__(
        self,
        num_counters: int,
        num_hashes: int,
        seed: int = 0,
        counter_bits: int = 4,
    ) -> None:
        if num_counters <= 0:
            raise ValueError(f"num_counters must be positive, got {num_counters}")
        if counter_bits <= 0 or counter_bits > 16:
            raise ValueError(f"counter_bits must be in [1, 16], got {counter_bits}")
        self._counters = (
            bytearray(num_counters)
            if counter_bits <= 8
            else array("H", [0]) * num_counters
        )
        self._nonzero = 0
        self._hashes = shared_family(num_hashes, num_counters, seed)
        self._num_items = 0
        self._max_count = (1 << counter_bits) - 1

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def num_counters(self) -> int:
        return len(self._counters)

    @property
    def hash_family(self) -> HashFamily:
        return self._hashes

    @property
    def num_hashes(self) -> int:
        return self._hashes.num_hashes

    @property
    def seed(self) -> int:
        return self._hashes.seed

    @property
    def num_items(self) -> int:
        """Net number of items currently represented (adds minus removes)."""
        return self._num_items

    @property
    def max_count(self) -> int:
        return self._max_count

    @property
    def nonzero_value(self) -> int:
        """Packed mirror: bit ``i`` set iff ``counters[i] > 0``."""
        return self._nonzero

    def counters(self) -> List[int]:
        """A copy of the raw counter array (the source of truth)."""
        return list(self._counters)

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def add(self, item: object) -> None:
        """Insert ``item``, incrementing (saturating) its counters."""
        counters = self._counters
        max_count = self._max_count
        # Mirror bits flip only on 0 -> 1 transitions (not a blanket mask
        # OR): duplicate indices in one probe sequence can leave a counter
        # at zero after an increment, and the mirror must agree with the
        # per-counter truth ``count > 0`` in that corner too.
        for index in self._hashes.probe(item)[0]:
            count = counters[index]
            if count < max_count:
                counters[index] = count + 1
                if count == 0:
                    self._nonzero |= 1 << index
        self._num_items += 1

    def update(self, items: Iterable[object]) -> None:
        for item in items:
            self.add(item)

    def remove(self, item: object) -> None:
        """Delete ``item``, decrementing its counters.

        Raises
        ------
        KeyError
            If the filter definitely does not contain ``item`` (some counter
            is already zero).  Deleting a never-inserted item that happens to
            collide is undetectable — that is inherent to counting filters —
            but deleting an item whose counters are zero is always an error.
        """
        indices = self._hashes.probe(item)[0]
        counters = self._counters
        # The exact per-counter check, not the mirror: the historical
        # contract raises only when some counter is exactly zero.
        if any(counters[i] == 0 for i in indices):
            raise KeyError(f"item not present in counting filter: {item!r}")
        max_count = self._max_count
        for index in indices:
            # Saturated counters cannot be decremented safely: the true count
            # is unknown.  Leaving them saturated keeps false negatives out.
            count = counters[index]
            if count < max_count:
                counters[index] = count - 1
                if count == 1:
                    self._nonzero &= ~(1 << index)
        self._num_items = max(0, self._num_items - 1)

    def discard(self, item: object) -> bool:
        """Like :meth:`remove` but returns False instead of raising."""
        try:
            self.remove(item)
        except KeyError:
            return False
        return True

    def __contains__(self, item: object) -> bool:
        return self.query(item)

    def query(self, item: object) -> bool:
        """Return True if ``item`` *may* be present."""
        mask = self._hashes.probe(item)[1]
        return (self._nonzero & mask) == mask

    def query_mask(self, mask: int) -> bool:
        """Membership test for a precomputed probe mask (the batch path)."""
        return (self._nonzero & mask) == mask

    def contains_many(self, items: Sequence[object]) -> List[bool]:
        """Batched membership: one AND/compare per item."""
        nonzero = self._nonzero
        probe = self._hashes.probe
        return [(nonzero & (m := probe(item)[1])) == m for item in items]

    def contains_indices(self, indices: List[int]) -> bool:
        """Membership test with precomputed indices (shared-family probes)."""
        return all(self._counters[i] > 0 for i in indices)

    def count_estimate(self, item: object) -> int:
        """Minimum counter value across the item's positions.

        This is an upper bound on the number of times ``item`` was added
        (the count-min sketch estimate restricted to this filter).
        """
        return min(self._counters[i] for i in self._hashes.probe(item)[0])

    def clear(self) -> None:
        for i in range(len(self._counters)):
            self._counters[i] = 0
        self._nonzero = 0
        self._num_items = 0

    # ------------------------------------------------------------------
    # Conversions and introspection
    # ------------------------------------------------------------------
    def to_bloom_filter(self) -> BloomFilter:
        """Project to a plain Bloom filter (counter > 0 → bit set)."""
        bloom = BloomFilter(self.num_counters, self.num_hashes, self.seed)
        bloom.bits.set_mask(self._nonzero)
        bloom._num_items = self._num_items
        return bloom

    def fill_ratio(self) -> float:
        """Fraction of non-zero counters."""
        nonzero = sum(1 for count in self._counters if count > 0)
        return nonzero / len(self._counters)

    def copy(self) -> "CountingBloomFilter":
        clone = CountingBloomFilter(
            self.num_counters, self.num_hashes, self.seed
        )
        clone._max_count = self._max_count
        clone._counters = self._counters[:]
        clone._nonzero = self._nonzero
        clone._num_items = self._num_items
        return clone

    def is_compatible(self, other: "CountingBloomFilter") -> bool:
        return self._hashes.is_compatible(other._hashes)

    def __repr__(self) -> str:
        return (
            f"CountingBloomFilter(num_counters={self.num_counters}, "
            f"num_hashes={self.num_hashes}, num_items={self._num_items})"
        )

    def size_bytes(self) -> int:
        """Approximate in-memory payload size (counter_bits per cell)."""
        bits = len(self._counters) * max(1, self._max_count.bit_length())
        return (bits + 7) // 8


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
