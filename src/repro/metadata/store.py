"""Per-MDS metadata store: the records an MDS is home for, by pathname.

The store is an ordered dict in recency order — ``get`` moves a hit to the
most-recently-used end and ``put`` re-appends — because two readers see
that order: checkpoint record lists and the re-home pairing of a departing
server's records (DESIGN.md §17).  Whether a record fetch pays memory or
disk latency is not the store's business: the server's one resident
fraction decides it (:attr:`repro.core.server.MetadataServer.resident_fraction`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
from typing import Iterator, List, Optional, Tuple

from repro.metadata.attributes import FileMetadata
from repro.metadata.namespace import subtree_bounds


class MetadataStore:
    """Recency-ordered store of :class:`FileMetadata` keyed by pathname."""

    def __init__(self) -> None:
        self._records: "OrderedDict[str, FileMetadata]" = OrderedDict()
        #: Every stored path, sorted, so a subtree is a key range
        #: (:meth:`paths_under`).  Built by the first subtree query and
        #: maintained by put / pop / remove from then on: a store that is never
        #: asked for a subtree never pays for it.
        self._index: Optional[List[str]] = None

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, path: str) -> bool:
        return path in self._records

    def put(self, meta: FileMetadata) -> None:
        """Insert or overwrite the record for ``meta.path`` (at the MRU end)."""
        records = self._records
        path = meta.path
        if path in records:
            del records[path]
        elif self._index is not None:
            insort(self._index, path)
        records[path] = meta

    def pop(self, path: str) -> FileMetadata:
        """Remove and return the record for ``path`` (``KeyError`` when
        there is none): :meth:`get` and :meth:`remove` in one step, without
        the recency move a removed record has no use for."""
        meta = self._records.pop(path)
        if self._index is not None:
            del self._index[bisect_left(self._index, path)]
        return meta

    def get(self, path: str) -> Optional[FileMetadata]:
        """Fetch a record, moving a hit to the MRU end; None on a miss."""
        meta = self._records.get(path)
        if meta is not None:
            self._records.move_to_end(path)
        return meta

    def remove(self, path: str) -> bool:
        """Delete a record; return True if one existed."""
        if self._records.pop(path, None) is None:
            return False
        if self._index is not None:
            del self._index[bisect_left(self._index, path)]
        return True

    def paths(self) -> Iterator[str]:
        """Yield every stored path, least recently used first."""
        return iter(self._records)

    def records(self) -> Iterator[FileMetadata]:
        return iter(self._records.values())

    def _build_index(self) -> List[str]:
        """Sort every stored path into the index (a store's first subtree
        query); put / pop / remove keep it from then on."""
        self._index = sorted(self.paths())
        return self._index

    def paths_under(
        self, prefix: str, bounds: Optional[Tuple[str, str]] = None
    ) -> List[str]:
        """Stored paths equal to ``prefix`` or below it, in sorted order.

        Two bisections of the sorted path index instead of a scan of the
        store: the cost is the size of the answer, not of the store.
        ``bounds`` is ``subtree_bounds(prefix)`` when the caller has it.
        """
        index = self._index
        if index is None:
            index = self._build_index()
        low, high = bounds or subtree_bounds(prefix)
        start = bisect_left(index, low)
        under = index[start:bisect_left(index, high, start)]
        if prefix in self._records:
            # ``prefix`` sorts before ``prefix + "/"``: still sorted.
            under.insert(0, prefix)
        return under

    def holds_under(self, prefix: str, bounds: Tuple[str, str]) -> bool:
        """Whether :meth:`paths_under` would answer anything, by the two
        bisections alone (``bounds`` is ``subtree_bounds(prefix)``)."""
        index = self._index
        if index is None:
            index = self._build_index()
        low, high = bounds
        return prefix in self._records or bisect_left(index, high) > bisect_left(index, low)

    def clear(self) -> None:
        self._records.clear()
        self._index = None

    def __repr__(self) -> str:
        return f"MetadataStore(records={len(self._records)})"
