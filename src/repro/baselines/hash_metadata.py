"""Hash-based metadata placement (Lustre / Vesta / Lazy Hybrid style).

Table 1's first row: pathname hashing gives O(1) lookup, perfect load
balance and zero lookup memory — but "this overhead is sometimes
prohibitively high when an upper directory is renamed or the total number
of MDSs is changed", because hash values must be recomputed and metadata
migrated (paper Section 1.1).

:class:`HashMetadataCluster` makes those costs measurable: files live on
``hash(path) % N``; renaming a directory re-keys every descendant and
migrates each whose new hash lands elsewhere; adding/removing a server
re-computes every placement.  Contrast with
:meth:`repro.core.cluster.GHBACluster.rename_subtree`, which re-keys
locally and migrates nothing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.metadata.attributes import FileMetadata
from repro.metadata.namespace import is_under


def _path_hash(path: str, seed: int = 0) -> int:
    payload = path.encode("utf-8") + seed.to_bytes(4, "big")
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "big"
    )


@dataclass
class MigrationReport:
    """Cost of one reconfiguration or rename."""

    rehashed: int = 0
    migrated: int = 0

    @property
    def migration_fraction(self) -> float:
        return self.migrated / self.rehashed if self.rehashed else 0.0


class HashMetadataCluster:
    """Metadata placed by pathname hashing across N servers."""

    def __init__(self, num_servers: int, seed: int = 0) -> None:
        if num_servers < 1:
            raise ValueError(f"num_servers must be >= 1, got {num_servers}")
        self._num_servers = num_servers
        self._seed = seed
        self._stores: List[Dict[str, FileMetadata]] = [
            {} for _ in range(num_servers)
        ]

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    @property
    def num_servers(self) -> int:
        return self._num_servers

    def home_of(self, path: str) -> int:
        """Deterministic O(1) lookup — hashing's strength."""
        return _path_hash(path, self._seed) % self._num_servers

    def insert_file(self, meta: FileMetadata) -> int:
        home = self.home_of(meta.path)
        self._stores[home][meta.path] = meta
        return home

    def populate(self, paths: Iterable[str]) -> Dict[str, int]:
        placement = {}
        for index, path in enumerate(paths):
            placement[path] = self.insert_file(
                FileMetadata(path=path, inode=index)
            )
        return placement

    def lookup(self, path: str) -> Optional[FileMetadata]:
        return self._stores[self.home_of(path)].get(path)

    @property
    def file_count(self) -> int:
        return sum(len(store) for store in self._stores)

    def files_per_server(self) -> List[int]:
        return [len(store) for store in self._stores]

    def load_imbalance(self) -> float:
        """Max/mean file count — hashing keeps this near 1."""
        counts = self.files_per_server()
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0

    # ------------------------------------------------------------------
    # The expensive operations
    # ------------------------------------------------------------------
    def rename_subtree(self, old_prefix: str, new_prefix: str) -> MigrationReport:
        """Rename a directory: every descendant re-hashes; most migrate.

        Returns how many records were re-keyed and how many had to move to
        a different server (expected fraction ``1 - 1/N``).
        """
        if old_prefix == new_prefix:
            return MigrationReport()
        report = MigrationReport()
        for server_index, store in enumerate(self._stores):
            victims = [path for path in store if is_under(path, old_prefix)]
            for path in victims:
                meta = store.pop(path)
                new_path = new_prefix + path[len(old_prefix):]
                new_home = self.home_of(new_path)
                self._stores[new_home][new_path] = meta.renamed(new_path)
                report.rehashed += 1
                if new_home != server_index:
                    report.migrated += 1
        return report

    def _resize(self, new_count: int) -> MigrationReport:
        report = MigrationReport()
        old_stores = self._stores
        self._num_servers = new_count
        self._stores = [{} for _ in range(new_count)]
        for old_index, store in enumerate(old_stores):
            for path, meta in store.items():
                new_home = self.home_of(path)
                self._stores[new_home][path] = meta
                report.rehashed += 1
                if new_home != old_index or old_index >= new_count:
                    report.migrated += 1
        return report

    def add_server(self) -> MigrationReport:
        """Grow N by one: every record re-hashes, ~(1 - 1/N) migrate."""
        return self._resize(self._num_servers + 1)

    def remove_server(self) -> MigrationReport:
        """Shrink N by one (the last server's records redistribute)."""
        if self._num_servers == 1:
            raise ValueError("cannot remove the last server")
        return self._resize(self._num_servers - 1)

    def __repr__(self) -> str:
        return (
            f"HashMetadataCluster(servers={self._num_servers}, "
            f"files={self.file_count})"
        )
