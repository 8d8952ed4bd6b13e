"""Unit tests for replica synchronization (Sections 2.4 and 3.4)."""

import pytest

from repro.core.query import QueryLevel
from repro.metadata.attributes import FileMetadata


def insert_files(cluster, server_id, count, tag):
    for i in range(count):
        cluster.insert_file(
            FileMetadata(path=f"/sync/{tag}/{i}", inode=i), home_id=server_id
        )


class TestThresholdRule:
    def test_no_update_below_threshold(self, small_cluster):
        small_cluster.synchronize_replicas(force=True)
        # One file dirties ~k bits, below the 32-bit threshold.
        insert_files(small_cluster, 0, 1, "tiny")
        report = small_cluster.synchronize_replicas(force=False)
        assert report.servers_updated == 0

    def test_update_above_threshold(self, small_cluster):
        small_cluster.synchronize_replicas(force=True)
        insert_files(small_cluster, 0, 30, "bulk")
        report = small_cluster.synchronize_replicas(force=False)
        assert report.servers_updated >= 1

    def test_force_updates_everyone(self, small_cluster):
        report = small_cluster.synchronize_replicas(force=True)
        assert report.servers_updated == small_cluster.num_servers

    def test_staleness_resets_after_sync(self, small_cluster):
        insert_files(small_cluster, 0, 30, "reset")
        small_cluster.synchronize_replicas(force=True)
        assert small_cluster.servers[0].staleness_bits() == 0


class TestUpdatePropagation:
    def test_update_reaches_one_mds_per_group(self, small_cluster):
        report = small_cluster.update_server_replicas(0)
        own_group = small_cluster.group_of(0).group_id
        other_groups = small_cluster.num_groups - 1
        assert report.groups_contacted == other_groups
        # At least one message per group; IDBFA false positives may add a
        # few more, which the falsely contacted MDSs simply drop.
        assert report.messages >= other_groups

    def test_update_makes_new_files_visible_remotely(self, small_cluster):
        insert_files(small_cluster, 0, 10, "vis")
        small_cluster.update_server_replicas(0)
        own_group = small_cluster.group_of(0).group_id
        for group in small_cluster.groups.values():
            if group.group_id == own_group:
                continue
            lookup = group.multicast_query("/sync/vis/3")
            assert 0 in lookup.hits

    def test_stale_replica_query_escapes_to_l4(self, small_cluster):
        """Before synchronization, fresh files are only findable via the
        home's own filter — queries from other groups must fall to L4."""
        small_cluster.synchronize_replicas(force=True)
        insert_files(small_cluster, 0, 5, "stale")
        own_group = small_cluster.group_of(0).group_id
        outside_origin = next(
            sid
            for sid in small_cluster.server_ids()
            if small_cluster.group_of(sid).group_id != own_group
        )
        result = small_cluster.query("/sync/stale/2", origin_id=outside_origin)
        assert result.found  # L4 guarantees service
        assert result.level is QueryLevel.L4
        # After synchronization the same query resolves within the group.
        small_cluster.synchronize_replicas(force=True)
        result = small_cluster.query("/sync/stale/3", origin_id=outside_origin)
        assert result.level in (QueryLevel.L2, QueryLevel.L3)

    def test_sync_latency_accounted(self, small_cluster):
        insert_files(small_cluster, 0, 30, "lat")
        report = small_cluster.synchronize_replicas(force=False)
        assert report.latency_ms > 0

    def test_sync_transfer_bytes_accounted(self, small_cluster):
        """Replica payloads ship compressed; sparse filters save a lot."""
        insert_files(small_cluster, 0, 30, "bytes")
        report = small_cluster.synchronize_replicas(force=False)
        assert report.bytes_raw > 0
        assert 0 < report.bytes_compressed < report.bytes_raw
        assert report.compression_ratio < 0.8

    def test_no_update_no_transfer_bytes(self, small_cluster):
        small_cluster.synchronize_replicas(force=True)
        report = small_cluster.synchronize_replicas(force=False)
        assert report.bytes_raw == 0
        assert report.compression_ratio == 1.0


class TestGHBAvsHBAUpdateCost:
    def test_ghba_update_messages_below_hba(self, small_config):
        """Figure 12's core claim: one MDS per group vs. every MDS."""
        from repro.baselines.hba import HBACluster
        from repro.core.cluster import GHBACluster

        ghba = GHBACluster(12, small_config)
        hba = HBACluster(12, small_config)
        ghba_report = ghba.update_server_replicas(0)
        hba_report = hba.update_server_replicas(0)
        assert ghba_report.messages < hba_report.messages == 11
        assert ghba_report.latency_ms < hba_report.latency_ms
