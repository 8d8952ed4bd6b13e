"""Counting Bloom filter (Fan et al., Summary Cache, 2000).

The paper's identification Bloom filter array (IDBFA, Section 2.4) uses
counting Bloom filters so that a replica's location record can be *deleted*
when the replica migrates or its MDS departs.  Each position holds a small
counter instead of a single bit; insertion increments, deletion decrements,
and membership tests check that every counter is non-zero.

The counters are the filter's only state (DESIGN.md §15): a membership
test reads the k counters at the item's memoized cells, and the packed
"counter > 0" form is computed when someone asks for it
(:attr:`CountingBloomFilter.nonzero_value`, :meth:`to_bloom_filter`).  The
L1 array, which probes many of these at once, keeps its own transposed
index over them instead of a packed form per filter.

Storage: one byte per cell, not a list of Python ints — a fleet holds one
of these per (MDS, home) pair.  That is the process's footprint;
:meth:`CountingBloomFilter.size_bytes` stays the *modelled*
:data:`COUNTER_BITS` per cell that the memory budget counts.
"""

from __future__ import annotations

from typing import List

from repro.bloom.bloom_filter import BloomFilter
from repro.bloom.hashing import HashFamily, shared_family

#: Width of each counter (at most 8: a counter is one byte).  Counters
#: saturate at ``2**COUNTER_BITS - 1`` rather than overflowing; 4 bits is
#: the classic choice and overflows with negligible probability.
COUNTER_BITS = 4


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
    """

    __slots__ = ("_counters", "_hashes", "_num_items", "_max_count")

    def __init__(
        self,
        num_counters: int,
        num_hashes: int,
        seed: int = 0,
    ) -> None:
        if num_counters <= 0:
            raise ValueError(f"num_counters must be positive, got {num_counters}")
        self._counters = bytearray(num_counters)
        self._hashes = shared_family(num_hashes, num_counters, seed)
        self._num_items = 0
        self._max_count = (1 << COUNTER_BITS) - 1

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
    def num_items(self) -> int:
        """Net number of items currently represented (adds minus removes)."""
        return self._num_items

    @property
    def nonzero_value(self) -> int:
        """Packed form, computed on demand: bit ``i`` set iff
        ``counters[i] > 0``."""
        value = 0
        for index, count in enumerate(self._counters):
            if count:
                value |= 1 << index
        return value

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
        for index in self._hashes.cells(item):
            count = counters[index]
            if count < max_count:
                counters[index] = count + 1
        self._num_items += 1

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
        indices = self._hashes.cells(item)
        counters = self._counters
        if any(counters[i] == 0 for i in indices):
            raise KeyError(f"item not present in counting filter: {item!r}")
        max_count = self._max_count
        for index in indices:
            # Saturated counters cannot be decremented safely: the true count
            # is unknown.  Leaving them saturated keeps false negatives out.
            count = counters[index]
            if count < max_count:
                counters[index] = count - 1
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
        counters = self._counters
        return all([counters[i] for i in self._hashes.cells(item)])

    def count_estimate(self, item: object) -> int:
        """Minimum counter value across the item's positions.

        This is an upper bound on the number of times ``item`` was added
        (the count-min sketch estimate restricted to this filter).
        """
        return min(self._counters[i] for i in self._hashes.cells(item))

    def clear(self) -> None:
        for i in range(len(self._counters)):
            self._counters[i] = 0
        self._num_items = 0

    # ------------------------------------------------------------------
    # Conversions and introspection
    # ------------------------------------------------------------------
    def to_bloom_filter(self) -> BloomFilter:
        """Project to a plain Bloom filter (counter > 0 → bit set)."""
        hashes = self._hashes
        bloom = BloomFilter(self.num_counters, hashes.num_hashes, hashes.seed)
        bloom._bits = self.nonzero_value
        bloom._num_items = self._num_items
        return bloom

    def __repr__(self) -> str:
        return (
            f"CountingBloomFilter(num_counters={self.num_counters}, "
            f"num_hashes={self._hashes.num_hashes}, num_items={self._num_items})"
        )

    def size_bytes(self) -> int:
        """Approximate in-memory payload size (COUNTER_BITS per cell)."""
        bits = len(self._counters) * max(1, self._max_count.bit_length())
        return (bits + 7) // 8
