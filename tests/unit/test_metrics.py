"""Unit tests for the cluster health summary."""

import dataclasses

import pytest

from repro.core.cluster import GHBACluster
from repro.core.metrics import (
    DEFAULT_HEALTH_LIMITS,
    ClusterSummary,
    HealthLimits,
    summarize,
)
from repro.obs.report import render_summary
from repro.metadata.attributes import FileMetadata


def _summary(**overrides):
    """A healthy baseline ClusterSummary with targeted overrides."""
    base = dict(
        num_servers=10,
        num_groups=2,
        group_sizes=[5, 5],
        total_files=1_000,
        mean_files_per_server=100.0,
        file_imbalance=1.2,
        mean_theta=2.0,
        replica_imbalance=1,
        bloom_bytes_per_server=1024.0,
        level_fractions={"L1": 1.0},
        mean_latency_ms=0.1,
        p95_latency_ms=0.2,
        total_queries=100,
        total_messages=50,
        false_forwards=0,
        stale_bits_outstanding=0,
        mean_lru_hit_rate=0.5,
    )
    base.update(overrides)
    return ClusterSummary(**base)


class TestSummarize:
    def test_structure_fields(self, populated_cluster):
        cluster, placement = populated_cluster
        summary = summarize(cluster)
        assert summary.num_servers == cluster.num_servers
        assert summary.num_groups == cluster.num_groups
        assert sum(summary.group_sizes) == cluster.num_servers
        assert summary.total_files == len(placement)

    def test_query_metrics_accumulate(self, populated_cluster):
        cluster, placement = populated_cluster
        for path in list(placement)[:30]:
            cluster.query(path)
        summary = summarize(cluster)
        assert summary.total_queries >= 30
        assert summary.mean_latency_ms > 0
        assert summary.p95_latency_ms >= summary.mean_latency_ms * 0.2
        assert sum(summary.level_fractions.values()) == pytest.approx(1.0)

    def test_staleness_tracks_unpublished_inserts(self, populated_cluster):
        cluster, _ = populated_cluster
        before = summarize(cluster).stale_bits_outstanding
        for i in range(20):
            cluster.insert_file(
                FileMetadata(path=f"/stale/m{i}", inode=i), home_id=0
            )
        after = summarize(cluster).stale_bits_outstanding
        assert after > before
        cluster.synchronize_replicas(force=True)
        assert summarize(cluster).stale_bits_outstanding == 0

    def test_healthy_cluster_reports_healthy(self, populated_cluster):
        cluster, _ = populated_cluster
        assert summarize(cluster).healthy()

    def test_format_renders_every_section(self, populated_cluster):
        cluster, placement = populated_cluster
        cluster.query(next(iter(placement)))
        text = render_summary(summarize(cluster))
        for fragment in ("servers / groups", "files", "theta", "queries",
                         "stale bits", "LRU hit rate"):
            assert fragment in text

    def test_empty_query_history(self, small_cluster):
        summary = summarize(small_cluster)
        assert summary.total_queries == 0
        assert summary.mean_latency_ms == 0.0
        assert summary.level_fractions == {}

    def test_mean_theta_consistent_with_servers(self, small_cluster):
        summary = summarize(small_cluster)
        thetas = [s.theta for s in small_cluster.servers.values()]
        assert summary.mean_theta == pytest.approx(sum(thetas) / len(thetas))


class TestHealthLimits:
    def test_defaults_frozen_and_stable(self):
        assert DEFAULT_HEALTH_LIMITS == HealthLimits()
        assert DEFAULT_HEALTH_LIMITS.max_file_imbalance == 2.0
        assert DEFAULT_HEALTH_LIMITS.max_replica_imbalance == 2
        assert DEFAULT_HEALTH_LIMITS.min_files_per_server == 10
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_HEALTH_LIMITS.max_file_imbalance = 3.0

    def test_healthy_baseline(self):
        assert _summary().healthy()

    def test_zero_servers_unhealthy(self):
        assert not _summary(
            num_servers=0, group_sizes=[], total_files=0
        ).healthy()

    def test_file_imbalance_branch(self):
        assert not _summary(file_imbalance=2.5).healthy()
        # A custom limit admits the same summary.
        assert _summary(file_imbalance=2.5).healthy(
            HealthLimits(max_file_imbalance=3.0)
        )

    def test_file_imbalance_forgiven_for_tiny_population(self):
        # 10 servers * 10 min files = 100; below that, lumpiness is fine.
        assert _summary(file_imbalance=5.0, total_files=80).healthy()
        assert not _summary(file_imbalance=5.0, total_files=101).healthy()

    def test_min_files_threshold_configurable(self):
        limits = HealthLimits(min_files_per_server=200)
        assert _summary(file_imbalance=5.0, total_files=1_000).healthy(limits)

    def test_replica_imbalance_branch(self):
        assert not _summary(replica_imbalance=3).healthy()
        assert _summary(replica_imbalance=3).healthy(
            HealthLimits(max_replica_imbalance=3)
        )
