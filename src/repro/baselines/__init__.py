"""Baseline metadata management schemes the paper compares against.

- :class:`~repro.baselines.hba.HBACluster` — HBA (Zhu, Jiang, Wang 2004):
  every MDS replicates every other MDS's Bloom filter locally, plus an LRU
  array.  The paper's principal comparison target; here a
  :class:`~repro.core.cluster.GHBACluster` at ``max_group_size = 1``.
- :func:`~repro.baselines.bfa.bfa_memory_bytes_per_server` — the pure Bloom
  Filter Array at a given bit/file ratio (Table 5's BFA8 / BFA16 unit):
  HBA's array without the LRU front-end, as a formula.
- :mod:`~repro.baselines.hash_placement` — modular-hash replica placement
  within a group (the design Section 2.4 argues against): join/leave forces
  wholesale replica migration.
- :class:`~repro.baselines.subtree.StaticSubtreePartition` — static
  directory subtree partitioning (NFS/AFS/Coda style) for the Table 1
  comparison: deterministic lookups, zero migration, no load balance.
- :mod:`~repro.baselines.comparison` — the qualitative scheme-comparison
  matrix of Table 1.
"""

from repro.baselines.hba import HBACluster
from repro.baselines.bfa import bfa_memory_bytes_per_server
from repro.baselines.hash_placement import HashPlacementGroup, hash_join_migrations
from repro.baselines.hash_metadata import HashMetadataCluster, MigrationReport
from repro.baselines.subtree import StaticSubtreePartition
from repro.baselines.dynamic_subtree import DynamicSubtreePartition
from repro.baselines.table_mapping import TableMappingCluster
from repro.baselines.comparison import COMPARISON_TABLE, SchemeTraits

__all__ = [
    "HBACluster",
    "bfa_memory_bytes_per_server",
    "HashPlacementGroup",
    "hash_join_migrations",
    "HashMetadataCluster",
    "MigrationReport",
    "StaticSubtreePartition",
    "DynamicSubtreePartition",
    "TableMappingCluster",
    "COMPARISON_TABLE",
    "SchemeTraits",
]
