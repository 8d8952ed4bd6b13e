"""Unit tests for the cluster health summary."""

import pytest

from repro.core.metrics import summarize
from repro.obs.report import render_summary
from repro.metadata.attributes import FileMetadata


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

