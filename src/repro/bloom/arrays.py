"""Bloom filter arrays — the building blocks of G-HBA's query levels.

Three array structures from the paper are implemented here:

- :class:`BloomFilterArray` — an ordered collection of Bloom filter replicas,
  one per home MDS.  A membership query probes every filter; a *unique hit*
  (exactly one filter fires) names the likely home MDS.  This is the
  structure behind both the L2 *segment* array (a subset of all replicas)
  and the flat array of the HBA/BFA baselines (all replicas).
- :class:`LRUBloomFilterArray` — the L1 array capturing temporal locality:
  a capacity-bounded LRU of recently resolved ``file → home MDS`` mappings,
  represented per-MDS by counting Bloom filters so that evictions cleanly
  clear bits.
- :class:`IDBloomFilterArray` — the IDBFA of Section 2.4: for each MDS in a
  group, a counting Bloom filter of the replica IDs it currently hosts,
  used to localize a replica before updating it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.bloom.bloom_filter import BloomFilter
from repro.bloom.counting import CountingBloomFilter
from repro.bloom.hashing import shared_family

# ``slots=True`` for dataclasses is 3.10+; CI also runs 3.9.
if sys.version_info >= (3, 10):
    _frozen_slots = dataclass(frozen=True, slots=True)
else:  # pragma: no cover - exercised only on Python < 3.10
    _frozen_slots = dataclass(frozen=True)


@_frozen_slots
class ArrayLookup:
    """Result of probing a Bloom filter array.

    Attributes
    ----------
    hits:
        IDs (home MDS identifiers) of the filters that reported membership.
    probes:
        Number of filters examined.
    """

    hits: Tuple[int, ...]
    probes: int

    @property
    def is_unique(self) -> bool:
        """True when exactly one filter fired — the array's success case."""
        return len(self.hits) == 1

    @property
    def is_miss(self) -> bool:
        """True when zero or multiple filters fired (paper: a 'miss')."""
        return not self.is_unique

    @property
    def unique_hit(self) -> int:
        """The single hit ID; raises if the lookup was not unique."""
        if not self.is_unique:
            raise ValueError(f"lookup is not unique: hits={self.hits}")
        return self.hits[0]


class BloomFilterArray:
    """An ordered array of Bloom filter replicas keyed by home MDS ID."""

    def __init__(self) -> None:
        # Insertion-ordered like every dict; a plain dict probes and
        # iterates faster than OrderedDict on the query hot path.
        self._filters: Dict[int, BloomFilter] = {}
        #: ``tuple(_filters.items())``, re-taken by every replica change;
        #: the probes below and the L3 multicast walk it.
        self._pairs: Tuple[Tuple[int, BloomFilter], ...] = ()
        # Most probes miss every filter; reuse one (immutable) empty result
        # instead of allocating a fresh ArrayLookup per miss.
        self._empty_lookup: Optional[ArrayLookup] = None

    # ------------------------------------------------------------------
    # Replica management
    # ------------------------------------------------------------------
    def add_replica(self, home_id: int, bloom: BloomFilter) -> None:
        """Install ``bloom`` as the replica for ``home_id``.

        Raises
        ------
        ValueError
            If a replica for ``home_id`` already exists (use
            :meth:`replace_replica` for updates).
        """
        if home_id in self._filters:
            raise ValueError(f"replica for MDS {home_id} already present")
        self._filters[home_id] = bloom
        self._pairs = tuple(self._filters.items())

    def replace_replica(self, home_id: int, bloom: BloomFilter) -> None:
        """Overwrite the replica for ``home_id`` (replica update path)."""
        if home_id not in self._filters:
            raise KeyError(f"no replica for MDS {home_id}")
        self._filters[home_id] = bloom
        self._pairs = tuple(self._filters.items())

    def remove_replica(self, home_id: int) -> BloomFilter:
        """Remove and return the replica for ``home_id``."""
        try:
            replica = self._filters.pop(home_id)
        except KeyError:
            raise KeyError(f"no replica for MDS {home_id}") from None
        self._pairs = tuple(self._filters.items())
        return replica

    def get_replica(self, home_id: int) -> BloomFilter:
        try:
            return self._filters[home_id]
        except KeyError:
            raise KeyError(f"no replica for MDS {home_id}") from None

    def __contains__(self, home_id: int) -> bool:
        return home_id in self._filters

    def __len__(self) -> int:
        return len(self._filters)

    def __iter__(self) -> Iterator[int]:
        return iter(self._filters)

    def home_ids(self) -> List[int]:
        """IDs of the MDSs whose replicas this array holds, in order."""
        return list(self._filters)

    def items(self) -> Iterable[Tuple[int, BloomFilter]]:
        return self._filters.items()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _hits(self, item: object) -> List[int]:
        """IDs of the filters that may hold ``item``, in array order: the
        one probe loop behind :meth:`query`, :meth:`query_into` and
        :meth:`probe_batch`, none of which calls another (each is its own
        span in a layered trace).

        Filters sharing a hash family (the common case: every MDS uses the
        same geometry so replicas stay comparable — and interning hands
        them the *same* family object) are probed with one memoized mask
        computation; each filter then costs one AND plus one compare.
        """
        hits: List[int] = []
        family = None
        mask = 0
        for home_id, bloom in self._pairs:
            if bloom._hashes is not family:
                family = bloom._hashes
                mask = family.mask(item)
            if (bloom._bits & mask) == mask:
                hits.append(home_id)
        return hits

    def query(self, item: object) -> ArrayLookup:
        """Probe every filter; return the set of hits."""
        hits = self._hits(item)
        probes = len(self._filters)
        if hits:
            return ArrayLookup(hits=tuple(hits), probes=probes)
        empty = self._empty_lookup
        if empty is None or empty.probes != probes:
            empty = ArrayLookup(hits=(), probes=probes)
            self._empty_lookup = empty
        return empty

    def query_into(self, item: object, hits: set) -> int:
        """Fused :meth:`query`: union hit IDs into ``hits``, return probes.

        The L2 probe unions the array's hits with its local filter's; this
        variant skips the :class:`ArrayLookup` allocation (DESIGN.md §15).
        """
        hits.update(self._hits(item))
        return len(self._filters)

    def probe_batch(self, items: Sequence[object]) -> List[ArrayLookup]:
        """Batched :meth:`query`: one walk of the array per item.
        Semantically identical to ``[self.query(i) for i in items]``."""
        probes = len(self._filters)
        return [
            ArrayLookup(hits=tuple(self._hits(item)), probes=probes)
            for item in items
        ]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Total payload size of all replicas, at O(1): a server hosts
        replicas of its local filter's geometry only
        (``MetadataServer._check_replica`` refuses any other)."""
        pairs = self._pairs
        return len(pairs) * pairs[0][1].size_bytes() if pairs else 0

    def __repr__(self) -> str:
        return f"BloomFilterArray(replicas={len(self._filters)})"


#: Replacement policies supported by the L1 array.  The paper uses LRU and
#: names better replacement as future work (Section 7); FIFO and LFU are
#: provided for the replacement-policy ablation.
REPLACEMENT_POLICIES = ("lru", "fifo", "lfu")


class LRUBloomFilterArray:
    """The L1 array: a bounded cache of hot ``file → home MDS`` mappings.

    The ground truth is a capacity-bounded dictionary evicted by the chosen
    replacement policy (LRU by default, as in the paper).  For faithful
    Bloom-filter semantics, each home MDS is additionally summarized by a
    counting Bloom filter over the hot files it owns; queries probe the
    filters (so false positives can and do occur), and evictions decrement
    counters so the filters track the cache contents exactly.

    A probe does not visit the filters.  ``_slices`` is their transpose:
    one small integer per counter cell whose bit ``s`` says that the filter
    in slot ``s`` has a non-zero counter there, so the homes that may own an
    item are the AND of the k slices at its cells (DESIGN.md §15).  A slot
    is a position handed out when a home's filter is created and handed
    back when :meth:`invalidate_home` drops it, so slices are as wide as
    the most homes ever held at once, whatever the server ids are.  The
    counters stay the truth: every mutation goes through the filter's own
    ``add`` / ``discard`` and then re-reads the counters it touched.

    In a cluster the array also reports which items it holds: every key
    that enters or leaves ``_entries`` sets or clears this array's bit in
    the cluster's holder map (:meth:`join_holders`), so a delete or a
    rename invalidates only at the origins whose L1 holds the path.  Outside
    a cluster (a prototype node, a ``repro.net serve`` process) there is no
    map and each key change pays one ``is None`` check.

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
        self._family = shared_family(num_hashes, filter_bits, seed)
        self._slices: List[int] = []  # allocated with the first filter
        #: home -> ``1 << slot``, in ``_filters`` order; slot -> home.
        self._slot_bits: Dict[int, int] = {}
        self._slot_homes: List[Optional[int]] = []
        #: The cluster's item -> origins map and this array's bit in it;
        #: None outside a cluster.
        self._holders: Optional[Dict[object, int]] = None
        self._holder_bit = 0

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
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
            if not self._slices:
                self._slices = [0] * self._filter_bits
            self._filters[home_id] = bloom
            homes = self._slot_homes
            if None not in homes:
                homes.append(None)
            slot = homes.index(None)
            homes[slot] = home_id
            self._slot_bits[home_id] = 1 << slot
        return bloom

    def join_holders(self, holders: Dict[object, int], bit: int) -> None:
        """Report every key, from now on, into ``holders`` under ``bit``:
        ``holders[item]`` has ``bit`` set while ``item`` is cached here."""
        self._holders = holders
        self._holder_bit = bit
        for item in self._entries:
            holders[item] = holders.get(item, 0) | bit

    def leave_holders(self) -> None:
        """Take every key out of the holder map and stop reporting."""
        if self._holders is not None:
            for item in self._entries:
                self._unhold(item)
            self._holders = None

    def _unhold(self, item: object) -> None:
        holders = self._holders
        bits = holders.pop(item)
        if bits != self._holder_bit:
            holders[item] = bits ^ self._holder_bit

    def _reslice(self, item: object, home_id: int) -> None:
        """Re-read the counters ``item`` maps to in ``home_id``'s filter
        into that home's bit of the k slices."""
        bit = self._slot_bits[home_id]
        counters = self._filters[home_id]._counters
        slices = self._slices
        for cell in self._family.cells(item):
            if counters[cell]:
                slices[cell] |= bit
            else:
                slices[cell] &= ~bit

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
                self._reslice(item, previous)
                self._entries[item] = home_id
                self._filter_for(home_id).add(item)
                self._reslice(item, home_id)
            return
        previous = self._entries.pop(item, None)
        if previous is None:
            holders = self._holders
            if holders is not None:
                # One lookup, and no new int, for a key no other origin holds.
                bits = holders.setdefault(item, self._holder_bit)
                if bits != self._holder_bit:
                    holders[item] = bits | self._holder_bit
        elif previous != home_id:
            self._filters[previous].discard(item)
            self._reslice(item, previous)
            previous = None
        self._entries[item] = home_id
        if self._is_lfu:
            # Use counts only drive LFU victim selection; skip the
            # bookkeeping entirely under LRU/FIFO.
            self._use_counts[item] = self._use_counts.get(item, 0) + 1
        if previous is None:
            self._filter_for(home_id).add(item)
            self._reslice(item, home_id)
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
        holders = self._holders
        if holders is not None:  # _unhold, inline: evictions ride queries
            bits = holders.pop(item)
            if bits != self._holder_bit:
                holders[item] = bits ^ self._holder_bit
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
        self._reslice(item, home_id)

    def invalidate(self, item: object) -> bool:
        """Drop ``item`` from the cache (e.g. after a false forward)."""
        home_id = self._entries.pop(item, None)
        if home_id is None:
            return False
        if self._holders is not None:
            self._unhold(item)
        self._use_counts.pop(item, None)
        self._filters[home_id].discard(item)
        self._reslice(item, home_id)
        return True

    def invalidate_home(self, home_id: int) -> int:
        """Drop every entry pointing at ``home_id`` (MDS departure).

        Returns the number of entries removed.
        """
        if home_id not in self._filters:
            return 0  # every entry's home has a filter: none names this one
        victims = [
            item for item, home in self._entries.items() if home == home_id
        ]
        holders = self._holders
        for item in victims:
            del self._entries[item]
            self._use_counts.pop(item, None)
            if holders is not None:
                self._unhold(item)
        bloom = self._filters.pop(home_id, None)
        if bloom is not None:
            bit = self._slot_bits.pop(home_id)
            self._slot_homes[bit.bit_length() - 1] = None
            counters = bloom._counters
            cells_of = self._family.cells
            cells = {cell for item in victims for cell in cells_of(item)}
            if len(cells) != len(counters) - counters.count(0):
                # A saturated counter outlives the items that raised it.
                cells = [cell for cell, count in enumerate(counters) if count]
            slices = self._slices
            for cell in cells:
                slices[cell] &= ~bit
        return len(victims)

    def clear(self) -> None:
        if self._holders is not None:
            for item in self._entries:
                self._unhold(item)
        self._entries.clear()
        self._use_counts.clear()
        self._filters.clear()
        self._slices = []
        self._slot_bits.clear()
        self._slot_homes.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, item: object) -> ArrayLookup:
        """Which homes' filters hold ``item`` (L1 lookup).

        ANDs the k slices at the item's memoised cells and stops at zero;
        the bits left standing are the slots whose filter has every one of
        those counters non-zero — what probing each filter would answer —
        and ``probes`` still counts every filter represented, which is what
        the cost model charges.  Updates the hit/miss counters used for
        Figure 13's per-level rates.
        """
        probes = len(self._filters)
        if probes:
            slices = self._slices
            live = -1
            for cell in self._family.cells(item):
                live &= slices[cell]
                if not live:
                    break
            else:
                if live & (live - 1):
                    self._misses += 1
                    hits = tuple(
                        [home for home, bit in self._slot_bits.items() if live & bit]
                    )
                else:
                    self._hits += 1
                    hits = (self._slot_homes[live.bit_length() - 1],)
                return ArrayLookup(hits, probes)
        self._misses += 1
        empty = self._empty_lru_lookup
        if empty is None or empty.probes != probes:
            empty = ArrayLookup(hits=(), probes=probes)
            self._empty_lru_lookup = empty
        return empty

    def probe_batch(self, items: Sequence[object]) -> List[ArrayLookup]:
        """:meth:`query` of each item in turn (statistics included)."""
        return [self.query(item) for item in items]

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

    def check_slices(self) -> None:
        """Raise ``AssertionError`` unless the slices are the transpose of
        the counters: bit ``s`` of ``_slices[c]`` stands iff the filter in
        slot ``s`` has ``counters[c] > 0``, and at no other slot."""
        if list(self._slot_bits) != list(self._filters):
            raise AssertionError(f"slots {list(self._slot_bits)} != filters")
        if self._filters and len(self._slices) != self._filter_bits:
            raise AssertionError(f"{len(self._slices)} slices for filters held")
        expected = [0] * self._filter_bits
        for home_id, bloom in self._filters.items():
            bit = self._slot_bits[home_id]
            if self._slot_homes[bit.bit_length() - 1] != home_id:
                raise AssertionError(f"slot of home {home_id} names another")
            for cell, count in enumerate(bloom._counters):
                if count:
                    expected[cell] |= bit
        for cell, (want, have) in enumerate(zip(expected, self._slices)):
            if want != have:
                raise AssertionError(f"cell {cell}: slice {have:#b}, counters {want:#b}")

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


#: Counters and hash functions of each member's ID filter in an IDBFA.
IDBFA_NUM_COUNTERS = 512
IDBFA_NUM_HASHES = 4


class IDBloomFilterArray:
    """The IDBFA (paper Section 2.4): replica localization within a group.

    For every MDS in the group, a counting Bloom filter represents the set of
    replica IDs (home MDS identifiers of the replicated filters) that
    physically reside on that MDS.  Updating a replica first queries this
    array to find the hosting MDS; counting filters let replica migrations
    and MDS departures delete entries.

    The class also maintains an exact mirror of the placements so that false
    positives can be *detected* (the paper notes a falsely identified MDS
    simply drops the update), and so invariants can be asserted in tests.
    """

    def __init__(self) -> None:
        self._filters: Dict[int, CountingBloomFilter] = {}
        self._placements: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Membership of member MDSs
    # ------------------------------------------------------------------
    def add_member(self, mds_id: int) -> None:
        """Register a group member with an empty ID filter."""
        if mds_id in self._filters:
            raise ValueError(f"MDS {mds_id} already a member")
        self._filters[mds_id] = CountingBloomFilter(
            IDBFA_NUM_COUNTERS, IDBFA_NUM_HASHES, 0
        )

    def remove_member(self, mds_id: int) -> List[int]:
        """Deregister ``mds_id``; return the replica IDs it was hosting."""
        if mds_id not in self._filters:
            raise KeyError(f"MDS {mds_id} is not a member")
        del self._filters[mds_id]
        orphans = [
            replica_id
            for replica_id, host in self._placements.items()
            if host == mds_id
        ]
        for replica_id in orphans:
            del self._placements[replica_id]
        return orphans

    def __contains__(self, mds_id: int) -> bool:
        return mds_id in self._filters

    # ------------------------------------------------------------------
    # Replica placement records
    # ------------------------------------------------------------------
    def place(self, replica_id: int, mds_id: int) -> None:
        """Record that the replica of MDS ``replica_id`` lives on ``mds_id``."""
        if mds_id not in self._filters:
            raise KeyError(f"MDS {mds_id} is not a member")
        if replica_id in self._placements:
            raise ValueError(
                f"replica {replica_id} already placed on "
                f"MDS {self._placements[replica_id]}"
            )
        self._filters[mds_id].add(replica_id)
        self._placements[replica_id] = mds_id

    def unplace(self, replica_id: int) -> int:
        """Remove the placement record; return the MDS that hosted it."""
        try:
            mds_id = self._placements.pop(replica_id)
        except KeyError:
            raise KeyError(f"replica {replica_id} is not placed") from None
        self._filters[mds_id].remove(replica_id)
        return mds_id

    def move(self, replica_id: int, new_mds_id: int) -> int:
        """Migrate a placement record; return the previous host."""
        old = self.unplace(replica_id)
        self.place(replica_id, new_mds_id)
        return old

    def host_of(self, replica_id: int) -> Optional[int]:
        """Exact (ground-truth) host of ``replica_id``, or None."""
        return self._placements.get(replica_id)

    def replica_count(self, mds_id: int) -> int:
        return sum(host == mds_id for host in self._placements.values())

    def placements(self) -> Dict[int, int]:
        """Copy of the exact placement map (replica ID → host MDS)."""
        return dict(self._placements)

    # ------------------------------------------------------------------
    # Probabilistic lookup (the actual IDBFA query)
    # ------------------------------------------------------------------
    def locate(self, replica_id: int) -> ArrayLookup:
        """Probe every member's ID filter for ``replica_id``.

        Multiple hits are possible (false positives); the caller contacts
        every candidate and the false ones drop the request, exactly as the
        paper describes.
        """
        hits = tuple(
            mds_id
            for mds_id, bloom in self._filters.items()
            if bloom.query(replica_id)
        )
        return ArrayLookup(hits=hits, probes=len(self._filters))

    def __repr__(self) -> str:
        return (
            f"IDBloomFilterArray(members={len(self._filters)}, "
            f"placements={len(self._placements)})"
        )
