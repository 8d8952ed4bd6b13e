"""Cluster summary — one call for dashboards and tests.

:func:`summarize` gathers the operational signals an operator of a G-HBA
deployment would watch: structure (servers, groups, balance), storage
(files, filter memory), query health (per-level mix, latency, false
forwards) and replication freshness (staleness bits outstanding).
``repro.obs.report.render_summary`` prints them; judging them is the
reader's.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List

from repro.core.cluster import GHBACluster


@dataclass(frozen=True)
class ClusterSummary:
    """A point-in-time health snapshot of a cluster."""

    num_servers: int
    num_groups: int
    group_sizes: List[int]
    total_files: int
    mean_files_per_server: float
    file_imbalance: float
    mean_theta: float
    replica_imbalance: int
    bloom_bytes_per_server: float
    level_fractions: Dict[str, float]
    mean_latency_ms: float
    p95_latency_ms: float
    total_queries: int
    total_messages: int
    false_forwards: int
    stale_bits_outstanding: int
    mean_lru_hit_rate: float


def summarize(cluster: GHBACluster) -> ClusterSummary:
    """Collect a :class:`ClusterSummary` from a live cluster."""
    servers = list(cluster.servers.values())
    file_counts = [server.file_count for server in servers]
    total_files = sum(file_counts)
    mean_files = total_files / len(servers) if servers else 0.0
    file_imbalance = (
        max(file_counts) / mean_files if mean_files > 0 else 1.0
    )
    thetas = [server.theta for server in servers]
    replica_imbalance = max(
        (group.load_imbalance() for group in cluster.groups.values()),
        default=0,
    )
    bloom_bytes = list(cluster.memory_bytes_per_server().values())
    lru_rates = [server.lru.hit_rate() for server in servers]
    return ClusterSummary(
        num_servers=cluster.num_servers,
        num_groups=cluster.num_groups,
        group_sizes=sorted(g.size for g in cluster.groups.values()),
        total_files=total_files,
        mean_files_per_server=mean_files,
        file_imbalance=file_imbalance,
        mean_theta=statistics.mean(thetas) if thetas else 0.0,
        replica_imbalance=replica_imbalance,
        bloom_bytes_per_server=(
            statistics.mean(bloom_bytes) if bloom_bytes else 0.0
        ),
        level_fractions=cluster.level_fractions(),
        mean_latency_ms=cluster.latency.mean,
        p95_latency_ms=cluster.latency.percentile(95),
        total_queries=cluster.latency.count,
        total_messages=cluster.total_messages,
        false_forwards=cluster.total_false_forwards,
        stale_bits_outstanding=sum(
            server.staleness_bits() for server in servers
        ),
        mean_lru_hit_rate=(
            statistics.mean(lru_rates) if lru_rates else 0.0
        ),
    )
