"""Dynamic subtree partitioning (Weil et al. SC'04 — Ceph's ancestor).

Table 1's fourth row: the namespace is divided into subtrees as in static
partitioning, but "when a server becomes heavily loaded, some of its
sub-directories automatically migrate to other servers with light load"
(paper Section 1.1).  Lookups stay deterministic (longest-prefix walk of
the partition map, O(log d)); the price is migration traffic whenever load
skews and O(d) map state.

This implementation tracks per-subtree access counts in a sliding epoch
and, on :meth:`rebalance`, moves the hottest subtrees from the most loaded
server to the least loaded until the imbalance ratio falls under a
threshold — enough to make the load-balance and migration-cost columns of
Table 1 measurable against the static partitioner.
"""

from __future__ import annotations

from typing import Dict

from repro.metadata.namespace import ancestor_paths, normalize_path

#: ``rebalance`` stops once max/mean access load is at most this.
IMBALANCE_THRESHOLD = 1.5


class DynamicSubtreePartition:
    """A subtree partition with load-triggered subtree migration.

    Parameters
    ----------
    assignments:
        Initial ``{subtree_path: server_id}`` including "/".
    """

    def __init__(self, assignments: Dict[str, int]) -> None:
        normalized = {
            normalize_path(path): server_id
            for path, server_id in assignments.items()
        }
        if "/" not in normalized:
            raise ValueError("assignments must include the root '/'")
        self._assignments = normalized
        self._subtree_hits: Dict[str, int] = {}
        self._migrations = 0

    # ------------------------------------------------------------------
    # Lookup (identical mechanics to the static partitioner)
    # ------------------------------------------------------------------
    def _owning_subtree(self, path: str) -> str:
        path = normalize_path(path)
        for candidate in [path] + list(reversed(ancestor_paths(path))):
            if candidate in self._assignments:
                return candidate
        raise AssertionError("unreachable: '/' is always assigned")

    def home_of(self, path: str) -> int:
        return self._assignments[self._owning_subtree(path)]

    def query(self, path: str) -> int:
        subtree = self._owning_subtree(path)
        self._subtree_hits[subtree] = self._subtree_hits.get(subtree, 0) + 1
        return self._assignments[subtree]

    # ------------------------------------------------------------------
    # Load accounting
    # ------------------------------------------------------------------
    def server_loads(self) -> Dict[int, int]:
        loads: Dict[int, int] = {
            server_id: 0 for server_id in set(self._assignments.values())
        }
        for subtree, hits in self._subtree_hits.items():
            loads[self._assignments[subtree]] += hits
        return loads

    def load_imbalance(self) -> float:
        loads = list(self.server_loads().values())
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean else 1.0

    @property
    def migrations(self) -> int:
        """Subtrees moved so far (the scheme's migration cost)."""
        return self._migrations

    # ------------------------------------------------------------------
    # The dynamic part
    # ------------------------------------------------------------------
    def rebalance(self, max_moves: int = 100) -> int:
        """Migrate hot subtrees from loaded to light servers.

        Moves the busiest migratable subtree (never "/") from the most
        loaded server to the least loaded one, repeating until the
        imbalance ratio drops under the threshold or no move helps.
        Returns the number of subtrees migrated.
        """
        moved = 0
        for _ in range(max_moves):
            loads = self.server_loads()
            if len(loads) < 2:
                break
            mean = sum(loads.values()) / len(loads)
            hottest_server = max(loads, key=lambda s: (loads[s], s))
            coldest_server = min(loads, key=lambda s: (loads[s], s))
            if mean == 0 or loads[hottest_server] / mean <= IMBALANCE_THRESHOLD:
                break
            candidates = [
                (self._subtree_hits.get(subtree, 0), subtree)
                for subtree, server in self._assignments.items()
                if server == hottest_server and subtree != "/"
            ]
            if not candidates:
                break
            gap = loads[hottest_server] - loads[coldest_server]
            # The busiest subtree that still fits in the gap (moving more
            # than the gap would just flip the imbalance).
            movable = [
                (hits, subtree) for hits, subtree in candidates if hits <= gap
            ]
            if not movable:
                break
            _, subtree = max(movable)
            self._assignments[subtree] = coldest_server
            self._migrations += 1
            moved += 1
        return moved

    def __repr__(self) -> str:
        return (
            f"DynamicSubtreePartition(subtrees={len(self._assignments)}, "
            f"migrations={self._migrations})"
        )
