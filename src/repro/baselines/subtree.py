"""Static directory-subtree partitioning (NFS / AFS / Coda / Sprite style).

The namespace is divided into non-overlapping subtrees, each statically
assigned to one MDS.  Lookups walk the partition map by longest path prefix
— deterministic, O(depth), zero migration — but there is no mechanism to
rebalance when traffic skews (Table 1's "Load Balance: No"), which this
implementation makes measurable via per-server access counters.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.metadata.namespace import ancestor_paths, normalize_path


class StaticSubtreePartition:
    """A static mapping from namespace subtrees to MDS IDs.

    Parameters
    ----------
    assignments:
        ``{subtree_path: server_id}``; must contain "/" as the root
        fallback so every path resolves.
    """

    def __init__(self, assignments: Dict[str, int]) -> None:
        normalized = {
            normalize_path(path): server_id
            for path, server_id in assignments.items()
        }
        if "/" not in normalized:
            raise ValueError("assignments must include the root '/'")
        self._assignments = normalized
        self._accesses: Dict[int, int] = {}

    @classmethod
    def divide_evenly(
        cls, top_level_dirs: Sequence[str], server_ids: Sequence[int]
    ) -> "StaticSubtreePartition":
        """Assign top-level directories to servers round-robin."""
        if not server_ids:
            raise ValueError("server_ids must be non-empty")
        assignments: Dict[str, int] = {"/": server_ids[0]}
        for index, directory in enumerate(sorted(top_level_dirs)):
            assignments[directory] = server_ids[index % len(server_ids)]
        return cls(assignments)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def home_of(self, path: str) -> int:
        """Deterministic lookup: longest assigned prefix wins."""
        path = normalize_path(path)
        for candidate in [path] + list(reversed(ancestor_paths(path))):
            server_id = self._assignments.get(candidate)
            if server_id is not None:
                return server_id
        raise AssertionError("unreachable: '/' is always assigned")

    def query(self, path: str) -> int:
        """Lookup with access accounting (for skew measurement)."""
        home = self.home_of(path)
        self._accesses[home] = self._accesses.get(home, 0) + 1
        return home

    def lookup_depth(self, path: str) -> int:
        """Prefix components examined — the O(log d) of Table 1."""
        path = normalize_path(path)
        candidates = [path] + list(reversed(ancestor_paths(path)))
        for depth, candidate in enumerate(candidates, start=1):
            if candidate in self._assignments:
                return depth
        raise AssertionError("unreachable: '/' is always assigned")

    # ------------------------------------------------------------------
    # Load-imbalance measurement (the scheme's weakness)
    # ------------------------------------------------------------------
    def load_imbalance(self) -> float:
        """Max/mean access ratio across servers (1.0 = perfectly balanced)."""
        counts = list(self._accesses.values())
        if not counts:
            return 1.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0

    @property
    def migration_cost_on_join(self) -> int:
        """Static partitions migrate nothing on membership change."""
        return 0

    def __repr__(self) -> str:
        return f"StaticSubtreePartition(subtrees={len(self._assignments)})"
