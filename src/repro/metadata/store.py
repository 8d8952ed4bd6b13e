"""Per-MDS metadata store with a memory tier and a simulated disk tier.

Figures 8-10 of the paper hinge on one mechanism: when the Bloom filter
replicas plus metadata outgrow an MDS's main memory, part of the state spills
to disk and lookups slow from memory speed to disk speed.  The store tracks
enough accounting for the simulator's memory model to decide, per access,
whether it was served from memory or disk.

The store itself is an LRU over metadata records: the hot subset stays in
the memory tier (up to a record budget) and colder records live in the disk
tier.  Access promotes records back into memory, evicting the LRU record.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.metadata.attributes import FileMetadata
from repro.metadata.namespace import subtree_bounds


class StoreAccess(enum.Enum):
    """Where an access was served from."""

    MEMORY = "memory"
    DISK = "disk"
    MISS = "miss"


@dataclass
class StoreStats:
    """Cumulative access counters."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    inserts: int = 0
    removals: int = 0

    def record(self, access: StoreAccess) -> None:
        if access is StoreAccess.MEMORY:
            self.memory_hits += 1
        elif access is StoreAccess.DISK:
            self.disk_hits += 1
        else:
            self.misses += 1

    @property
    def total_lookups(self) -> int:
        return self.memory_hits + self.disk_hits + self.misses


class MetadataStore:
    """LRU-tiered store of :class:`FileMetadata` keyed by pathname.

    Parameters
    ----------
    memory_budget_bytes:
        Bytes of main memory available for metadata records.  ``None`` means
        unbounded (everything stays in memory — the paper's "large memory"
        configurations).
    """

    def __init__(self, memory_budget_bytes: Optional[int] = None) -> None:
        if memory_budget_bytes is not None and memory_budget_bytes < 0:
            raise ValueError(
                f"memory_budget_bytes must be non-negative, got {memory_budget_bytes}"
            )
        self._memory_budget = memory_budget_bytes
        self._memory: "OrderedDict[str, FileMetadata]" = OrderedDict()
        self._disk: Dict[str, FileMetadata] = {}
        self._memory_bytes = 0
        #: Every stored path of both tiers, sorted, so a subtree is a key
        #: range (:meth:`paths_under`).  Built by the first subtree query
        #: and maintained by put / remove from then on: a store that is
        #: never asked for a subtree never pays for it.
        self._index: Optional[List[str]] = None
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    @property
    def memory_budget_bytes(self) -> Optional[int]:
        return self._memory_budget

    @memory_budget_bytes.setter
    def memory_budget_bytes(self, budget: Optional[int]) -> None:
        """Adjust the budget at runtime (spills immediately if shrunk)."""
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be non-negative, got {budget}")
        self._memory_budget = budget
        self._spill_to_budget()

    @property
    def memory_bytes(self) -> int:
        """Bytes currently consumed by the memory tier."""
        return self._memory_bytes

    @property
    def memory_count(self) -> int:
        return len(self._memory)

    @property
    def disk_count(self) -> int:
        return len(self._disk)

    def __len__(self) -> int:
        return len(self._memory) + len(self._disk)

    def __contains__(self, path: str) -> bool:
        return path in self._memory or path in self._disk

    # ------------------------------------------------------------------
    # Tier management
    # ------------------------------------------------------------------
    def _spill_to_budget(self) -> None:
        if self._memory_budget is None:
            return
        while self._memory and self._memory_bytes > self._memory_budget:
            path, meta = self._memory.popitem(last=False)
            self._memory_bytes -= meta.size_bytes()
            self._disk[path] = meta

    def _admit(self, meta: FileMetadata) -> None:
        self._memory[meta.path] = meta
        self._memory_bytes += meta.size_bytes()
        self._spill_to_budget()

    # ------------------------------------------------------------------
    # CRUD
    # ------------------------------------------------------------------
    def put(self, meta: FileMetadata) -> None:
        """Insert or overwrite the record for ``meta.path``."""
        self.remove(meta.path, missing_ok=True)
        self._admit(meta)
        if self._index is not None:
            insort(self._index, meta.path)
        self.stats.inserts += 1

    def get(self, path: str) -> Optional[FileMetadata]:
        """Fetch a record, promoting disk hits into memory.

        Updates access statistics; returns None on a miss.
        """
        meta = self._memory.get(path)
        if meta is not None:
            self._memory.move_to_end(path)
            self.stats.record(StoreAccess.MEMORY)
            return meta
        meta = self._disk.pop(path, None)
        if meta is not None:
            self.stats.record(StoreAccess.DISK)
            self._admit(meta)
            return meta
        self.stats.record(StoreAccess.MISS)
        return None

    def access_tier(self, path: str) -> StoreAccess:
        """Which tier would serve ``path`` right now (no promotion)."""
        if path in self._memory:
            return StoreAccess.MEMORY
        if path in self._disk:
            return StoreAccess.DISK
        return StoreAccess.MISS

    def remove(self, path: str, missing_ok: bool = False) -> bool:
        """Delete a record; return True if one existed."""
        meta = self._memory.pop(path, None)
        if meta is not None:
            self._memory_bytes -= meta.size_bytes()
        elif self._disk.pop(path, None) is None:
            if not missing_ok:
                raise KeyError(path)
            return False
        if self._index is not None:
            del self._index[bisect_left(self._index, path)]
        self.stats.removals += 1
        return True

    def paths(self) -> Iterator[str]:
        """Yield every stored path (memory tier first)."""
        yield from self._memory
        yield from self._disk

    def records(self) -> Iterator[FileMetadata]:
        yield from self._memory.values()
        yield from self._disk.values()

    def paths_under(self, prefix: str) -> List[str]:
        """Stored paths equal to ``prefix`` or below it, in sorted order.

        Two bisections of the sorted path index instead of a scan of the
        store: the cost is the size of the answer, not of the store.
        """
        index = self._index
        if index is None:
            index = self._index = sorted(self.paths())
        low, high = subtree_bounds(prefix)
        start = bisect_left(index, low)
        under = index[start:bisect_left(index, high, start)]
        if prefix in self:
            # ``prefix`` sorts before ``prefix + "/"``: still sorted.
            under.insert(0, prefix)
        return under

    def clear(self) -> None:
        self._memory.clear()
        self._disk.clear()
        self._memory_bytes = 0
        self._index = None

    def __repr__(self) -> str:
        return (
            f"MetadataStore(memory={len(self._memory)}, disk={len(self._disk)}, "
            f"budget={self._memory_budget})"
        )
