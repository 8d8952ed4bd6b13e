"""G-HBA core: the paper's primary contribution.

This package implements the Group-based Hierarchical Bloom filter Array:

- :class:`~repro.core.config.GHBAConfig` — all tunables in one place.
- :class:`~repro.core.server.MetadataServer` — one MDS: local metadata
  store, local Bloom filter, L1 LRU array, L2 segment array, memory model.
- :class:`~repro.core.group.Group` — a group of MDSs collectively holding
  one full replica mirror, coordinated through an IDBFA.
- :class:`~repro.core.cluster.GHBACluster` — the whole system: the
  four-level query critical path (Section 2.3), replica updates
  (Section 2.4 / 3.4), dynamic reconfiguration (Sections 3.1-3.2) and
  failure handling (Section 4.5).
- :mod:`~repro.core.optimal` — the normalized-throughput model of
  Section 3.3 (Equations 2-4) used to pick the optimal group size M.
"""

from repro.core.config import GHBAConfig
from repro.core.query import QueryLevel, QueryResult
from repro.core.server import MetadataServer
from repro.core.group import Group
from repro.core.cluster import GHBACluster
from repro.core.failure import FailureEvent, HeartbeatMonitor
from repro.core import checkpoint
from repro.core.metrics import ClusterSummary, summarize
from repro.core.optimal import (
    HitRates,
    OptimalityModel,
    normalized_throughput,
    optimal_group_size,
)

__all__ = [
    "GHBAConfig",
    "QueryLevel",
    "QueryResult",
    "MetadataServer",
    "Group",
    "GHBACluster",
    "FailureEvent",
    "HeartbeatMonitor",
    "checkpoint",
    "ClusterSummary",
    "summarize",
    "HitRates",
    "OptimalityModel",
    "normalized_throughput",
    "optimal_group_size",
]
