"""Hash families for Bloom filters.

The paper assumes ``k`` independent hash functions per filter.  We derive them
with the classic Kirsch-Mitzenmacher *double hashing* construction,
``h_i(x) = h1(x) + i * h2(x) mod m``, which preserves the asymptotic
false-positive behaviour of truly independent hashes while needing only two
base digests.  The base digests come from ``hashlib.blake2b`` with distinct
keys, so two :class:`HashFamily` instances built with the same parameters
produce identical indices — a property the replica machinery relies on
(a Bloom filter replica must probe the same bits as the original).

Hot-path machinery (DESIGN.md §15)
----------------------------------
Hashing dominates probe cost once the bit tests themselves collapse to
int ops, so this module adds two layers on top of the construction:

* **Interning** — :func:`shared_family` returns one canonical
  :class:`HashFamily` per ``(num_hashes, num_bits, seed)``.  Every filter
  of the same geometry (all L1 LRU filters, all L2 segment replicas of a
  group, every server's global replica) shares one instance, and
  therefore one memo: a key hashed once while probing server 1's
  replica is free at servers 2..N.
* **Two memos, one per form** — :meth:`HashFamily.cells` memoizes
  ``item -> (index, ...)`` and :meth:`HashFamily.mask` memoizes
  ``item -> OR of 1 << index`` (built from the cells).  Cells are what
  every transposed index is read by (the L1 slices, the cluster's LOCAL
  and PUB index behind L2-L4) and what counter arrays use; a mask is
  memoized only where a packed ``_bits`` int is *tested*, ``(bits &
  mask) == mask`` (``BloomFilter.query`` / ``contains_many``, so verify
  misses and the prototype's and wire processes' probes, and the
  replicas a cluster host probes by mask).  A mask is as wide as the
  filter, and a fleet adds every path it holds but tests few of them,
  so :meth:`HashFamily.mask_to_add` reuses a tested item's mask and
  otherwise builds one from the cells and keeps none.  Both memos are bounded —
  cells by entries, masks by bytes; on overflow the oldest half (dict
  insertion order) is dropped in one slice.
"""

from __future__ import annotations

import hashlib
import sys
from typing import Dict, List, Tuple

#: Per-family bound on memoized cell tuples (~250 bytes each at k = 6,
#: integers included).
CELL_MEMO_CAPACITY = 1 << 16

#: Per-family bound on the bytes of memoized masks (the int objects; keys
#: and the dict's table come on top, ~100 bytes per entry).  A mask is
#: ``num_bits / 7.5`` bytes, so the entry bound follows from the geometry:
#: 31 000 masks at 16 000 bits, 3 100 at ``GHBAConfig()``'s 160 000.  Only
#: tested items are memoized (module docstring), so a fleet holds masks
#: for the paths it verified and missed, not for every path it added.
MASK_MEMO_BYTES = 64 << 20


def _drop_oldest_half(memo: Dict[object, object]) -> None:
    for key in list(memo)[: (len(memo) + 1) // 2]:
        del memo[key]


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
        "_cells",
        "_masks",
        "_mask_capacity",
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
        # bytes/str/int items only (enforced by _encode), so the item
        # itself is a safe, hashable memo key.
        self._cells: Dict[object, Tuple[int, ...]] = {}
        self._masks: Dict[object, int] = {}
        self._mask_capacity = max(
            1, MASK_MEMO_BYTES // sys.getsizeof(1 << (num_bits - 1))
        )

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

    def _compute(self, item: object) -> Tuple[int, ...]:
        data = self._encode(item)
        h1 = _digest64(data, self._salt1)
        h2 = _digest64(data, self._salt2)
        # An even h2 could cycle through a strict subset of positions when m
        # is even; forcing it odd keeps the probe sequence well distributed.
        h2 |= 1
        m = self._num_bits
        return tuple((h1 + i * h2) % m for i in range(self._num_hashes))

    def cells(self, item: object) -> Tuple[int, ...]:
        """The ``k`` indices of ``item`` (memoized) — the form a counter
        array and a transposed index are read by."""
        memo = self._cells
        cells = memo.get(item)
        if cells is None:
            if len(memo) >= CELL_MEMO_CAPACITY:
                _drop_oldest_half(memo)
            cells = memo[item] = self._compute(item)
        return cells

    def _build_mask(self, item: object) -> int:
        mask = 0
        for index in self.cells(item):
            mask |= 1 << index
        return mask

    def mask(self, item: object) -> int:
        """The OR of ``1 << i`` over the ``k`` indices of ``item``
        (memoized) — the single-int form a packed filter is tested by,
        ``(bits & mask) == mask``."""
        memo = self._masks
        mask = memo.get(item)
        if mask is None:
            if len(memo) >= self._mask_capacity:
                _drop_oldest_half(memo)
            mask = memo[item] = self._build_mask(item)
        return mask

    def mask_to_add(self, item: object) -> int:
        """The mask that adding ``item`` to a packed filter ORs in: the
        memoized one when a test already made it, else one built from the
        memoized cells and not kept (adds never fill the mask memo)."""
        mask = self._masks.get(item)
        return mask if mask is not None else self._build_mask(item)

    def indices(self, item: object) -> List[int]:
        """Return the ``k`` bit indices for ``item``."""
        return list(self.cells(item))

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
# Interning — one family (and one memo) per geometry
# ----------------------------------------------------------------------
_SHARED_FAMILIES: Dict[Tuple[int, int, int], HashFamily] = {}


def shared_family(num_hashes: int, num_bits: int, seed: int = 0) -> HashFamily:
    """Return the canonical :class:`HashFamily` for this geometry.

    Filters share hash state purely by value (`parameters()`), so handing
    every same-geometry filter the same instance is semantically
    invisible — it only fuses their memos, which is exactly what
    the replica fan-out wants: the L3 multicast probes ~N replicas of
    identical geometry with the same key.
    """
    key = (num_hashes, num_bits, seed)
    family = _SHARED_FAMILIES.get(key)
    if family is None:
        family = HashFamily(num_hashes, num_bits, seed)
        _SHARED_FAMILIES[key] = family
    return family
