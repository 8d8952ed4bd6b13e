"""The standard Bloom filter (Bloom, 1970).

Each metadata server in G-HBA summarizes the set of files whose metadata it
stores locally in one :class:`BloomFilter`, then replicates the filter to
other servers.  The filter therefore needs to be cheaply copyable,
serializable, and comparable bit-by-bit (for the XOR-threshold update rule of
paper Section 3.4).

Representation: the ``m`` bits are one Python int, ``_bits`` — bit ``i``
of the filter is bit ``i`` of the int — and ``m`` itself is read from the
filter's interned :class:`~repro.bloom.hashing.HashFamily`.  Union,
intersection, XOR and popcount are then single C-level big-int ops, and
``_bits.to_bytes(n, "little")`` places bit ``i`` at
``byte[i >> 3] & (1 << (i & 7))``, the historical wire layout.

Hot path: the shared family memoizes each tested key's probe mask (the
OR of ``1 << i`` over its ``k`` indices), so :meth:`query` is one AND
plus a compare against ``_bits``; the segment arrays read the same
attribute.  :meth:`add` reuses a tested key's mask and otherwise builds
one from the memoized cells and keeps none (hashing's "Two memos, one
per form").  The batched
:meth:`contains_many` amortizes attribute lookups across a whole
``VERIFY_BATCH`` (DESIGN.md §15).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.bloom.hashing import HashFamily, shared_family
from repro.bloom.analysis import optimal_num_hashes

# ``int.bit_count`` is 3.10+; CI also runs 3.9.  ``bin(x).count("1")`` is
# the portable fallback and still operates on the whole word at once.
if hasattr(int, "bit_count"):  # pragma: no branch
    def popcount(value: int) -> int:
        """Number of set bits of a non-negative int."""
        return value.bit_count()
else:  # pragma: no cover - exercised only on Python < 3.10
    def popcount(value: int) -> int:
        """Number of set bits of a non-negative int."""
        return bin(value).count("1")


class BloomFilter:
    """A standard Bloom filter over string / bytes / int items.

    Parameters
    ----------
    num_bits:
        Size of the bit vector (``m``).
    num_hashes:
        Number of hash functions (``k``).
    seed:
        Seed for the hash family.  Filters that must be unioned, intersected
        or compared (originals and their replicas) must share ``num_bits``,
        ``num_hashes`` and ``seed``.
    """

    __slots__ = ("_bits", "_hashes", "_num_items")

    def __init__(self, num_bits: int, num_hashes: int, seed: int = 0) -> None:
        self._bits = 0
        # Same-geometry filters share one family — and one mask memo —
        # so a key hashed at one replica is free at every other.
        self._hashes = shared_family(num_hashes, num_bits, seed)
        self._num_items = 0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def with_capacity(
        cls,
        expected_items: int,
        bits_per_item: float = 8.0,
        seed: int = 0,
    ) -> "BloomFilter":
        """Build a filter sized for ``expected_items`` at ``bits_per_item``.

        The paper evaluates bit/file ratios of 8 and 16 (Table 5); the number
        of hash functions is the optimal ``k = (m/n) ln 2`` rounded.
        """
        if expected_items <= 0:
            raise ValueError(
                f"expected_items must be positive, got {expected_items}"
            )
        if bits_per_item <= 0:
            raise ValueError(
                f"bits_per_item must be positive, got {bits_per_item}"
            )
        num_bits = max(8, int(expected_items * bits_per_item))
        return cls(num_bits, optimal_num_hashes(bits_per_item), seed)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def num_bits(self) -> int:
        return self._hashes.num_bits

    @property
    def num_hashes(self) -> int:
        return self._hashes.num_hashes

    @property
    def seed(self) -> int:
        return self._hashes.seed

    @property
    def num_items(self) -> int:
        """Number of ``add`` calls recorded (re-adding counts again)."""
        return self._num_items

    @property
    def bits(self) -> int:
        """The packed bits: bit ``i`` of the filter is bit ``i`` here."""
        return self._bits

    @property
    def hash_family(self) -> HashFamily:
        return self._hashes

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def add(self, item: object) -> None:
        """Insert ``item`` into the filter."""
        self._bits |= self._hashes.mask_to_add(item)
        self._num_items += 1

    def update(self, items: Iterable[object]) -> None:
        """Insert every item of ``items``."""
        for item in items:
            self.add(item)

    def __contains__(self, item: object) -> bool:
        return self.query(item)

    def query(self, item: object) -> bool:
        """Return True if ``item`` *may* be in the set (no false negatives)."""
        mask = self._hashes.mask(item)
        return (self._bits & mask) == mask

    def contains_many(self, items: Sequence[object]) -> List[bool]:
        """Batched membership: one pass, one answer per item.

        Equivalent to ``[item in self for item in items]`` but hoists the
        bit-vector and hash-family lookups out of the loop, so a whole
        ``VERIFY_BATCH`` costs k hashes (amortized zero once cached) plus
        one AND/compare per item.
        """
        value = self._bits
        mask_of = self._hashes.mask
        return [(value & (m := mask_of(item))) == m for item in items]

    def clear(self) -> None:
        """Remove all items (reset every bit)."""
        self._bits = 0
        self._num_items = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def fill_ratio(self) -> float:
        """Fraction of set bits."""
        return popcount(self._bits) / self._hashes.num_bits

    def is_compatible(self, other: "BloomFilter") -> bool:
        """True if ``other`` uses the same geometry and hash family."""
        return self._hashes.is_compatible(other._hashes)

    def copy(self) -> "BloomFilter":
        """Return an independent deep copy (a *replica* of this filter)."""
        return self._with_bits(self._bits, self._num_items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return self.is_compatible(other) and self._bits == other._bits

    def __hash__(self) -> int:  # pragma: no cover - filters are mutable
        raise TypeError("BloomFilter is mutable and unhashable")

    def __repr__(self) -> str:
        return (
            f"BloomFilter(num_bits={self.num_bits}, num_hashes={self.num_hashes}, "
            f"num_items={self._num_items}, fill={self.fill_ratio():.3f})"
        )

    # ------------------------------------------------------------------
    # Serialization — used by the prototype's wire messages
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize geometry + payload into a self-describing byte string."""
        header = (
            self.num_bits.to_bytes(8, "big")
            + self.num_hashes.to_bytes(4, "big")
            + self.seed.to_bytes(8, "big", signed=True)
            + self._num_items.to_bytes(8, "big")
        )
        return header + self._bits.to_bytes(self.size_bytes(), "little")

    @classmethod
    def from_bytes(cls, payload: bytes) -> "BloomFilter":
        """Reconstruct a filter serialized with :meth:`to_bytes`."""
        if len(payload) < 28:
            raise ValueError("payload too short for a BloomFilter header")
        num_bits = int.from_bytes(payload[0:8], "big")
        num_hashes = int.from_bytes(payload[8:12], "big")
        seed = int.from_bytes(payload[12:20], "big", signed=True)
        num_items = int.from_bytes(payload[20:28], "big")
        bloom = cls(num_bits, num_hashes, seed)
        bits = payload[28:]
        if len(bits) != bloom.size_bytes():
            raise ValueError(
                f"payload has {len(bits)} bytes, expected {bloom.size_bytes()} "
                f"for {num_bits} bits"
            )
        bloom._bits = int.from_bytes(bits, "little")
        bloom._num_items = num_items
        return bloom

    # ------------------------------------------------------------------
    # Internal helper used by copy and the algebra module
    # ------------------------------------------------------------------
    def _with_bits(self, bits: int, num_items: int) -> "BloomFilter":
        result = BloomFilter(self.num_bits, self.num_hashes, self.seed)
        result._bits = bits
        result._num_items = num_items
        return result

    def size_bytes(self) -> int:
        """Approximate in-memory size of the filter payload in bytes."""
        return (self.num_bits + 7) // 8
