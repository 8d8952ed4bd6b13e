"""Unit tests for the G-HBA cluster's four-level query path."""

import dataclasses

import pytest

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.query import QueryLevel
from repro.metadata.attributes import FileMetadata


class TestBootstrap:
    def test_groups_packed_to_max_size(self, small_cluster):
        sizes = sorted(g.size for g in small_cluster.groups.values())
        assert sizes == [3, 3, 4]  # 10 servers, M=4, balanced partition

    def test_invariants_hold_after_bootstrap(self, small_cluster):
        small_cluster.check_invariants()

    def test_each_group_mirrors_all_outsiders(self, small_cluster):
        for group in small_cluster.groups.values():
            hosted = set(group.hosted_replica_ids())
            expected = set(small_cluster.servers) - set(group.member_ids())
            assert hosted == expected

    def test_replica_balance_within_groups(self, small_cluster):
        for group in small_cluster.groups.values():
            assert group.load_imbalance() <= 1

    def test_single_server_cluster(self, small_config):
        cluster = GHBACluster(1, small_config)
        cluster.check_invariants()
        cluster.insert_file(FileMetadata(path="/f", inode=1), home_id=0)
        assert cluster.query("/f").found

    def test_rejects_zero_servers(self, small_config):
        with pytest.raises(ValueError):
            GHBACluster(0, small_config)


class TestQueryCorrectness:
    def test_every_lookup_finds_true_home(self, populated_cluster):
        cluster, placement = populated_cluster
        for path, home in list(placement.items())[::7]:
            result = cluster.query(path)
            assert result.found
            assert result.home_id == home

    def test_negative_lookup(self, populated_cluster):
        cluster, _ = populated_cluster
        result = cluster.query("/definitely/not/there")
        assert not result.found
        assert result.level is QueryLevel.NEGATIVE
        assert result.messages >= 2 * (cluster.num_servers - 1)

    def test_origin_lru_learns_from_success(self, populated_cluster):
        cluster, placement = populated_cluster
        path, home = next(iter(placement.items()))
        origin = cluster.server_ids()[0]
        cluster.query(path, origin_id=origin)
        repeat = cluster.query(path, origin_id=origin)
        assert repeat.level is QueryLevel.L1
        assert repeat.home_id == home

    def test_l1_latency_below_l3(self, populated_cluster):
        cluster, placement = populated_cluster
        path = next(iter(placement))
        origin = cluster.server_ids()[0]
        first = cluster.query(path, origin_id=origin)
        second = cluster.query(path, origin_id=origin)
        if first.level in (QueryLevel.L3, QueryLevel.L4):
            assert second.latency_ms < first.latency_ms

    def test_l2_hit_when_origin_hosts_replica(self, populated_cluster):
        cluster, placement = populated_cluster
        # Find a (path, origin) pair where the origin hosts the home's
        # replica but is in a different group.
        for path, home in placement.items():
            home_group = cluster.group_of(home).group_id
            for origin_id, server in cluster.servers.items():
                if (
                    home in server.hosted_replicas()
                    and cluster.group_of(origin_id).group_id != home_group
                ):
                    result = cluster.query(path, origin_id=origin_id)
                    assert result.level in (QueryLevel.L2, QueryLevel.L1)
                    assert result.home_id == home
                    return
        pytest.skip("no suitable origin found")

    def test_l3_when_replica_elsewhere_in_group(self, populated_cluster):
        cluster, placement = populated_cluster
        for path, home in placement.items():
            home_group = cluster.group_of(home).group_id
            for origin_id, server in cluster.servers.items():
                origin_group = cluster.group_of(origin_id)
                if (
                    origin_group.group_id != home_group
                    and home not in server.hosted_replicas()
                    and origin_id != home
                ):
                    result = cluster.query(path, origin_id=origin_id)
                    assert result.home_id == home
                    assert result.level in (QueryLevel.L3, QueryLevel.L1)
                    return
        pytest.skip("no suitable origin found")


class TestGroupOfOne:
    """A group with no peers has no L3: a query that misses L1 and L2 goes
    straight to the global multicast (M = 1 is HBA, ISSUE 18)."""

    @pytest.fixture
    def stale(self, small_config):
        """N = 10 at M = 1; one file deleted at its home, replicas not yet
        synchronized — every other MDS still routes it there."""
        config = dataclasses.replace(small_config, max_group_size=1)
        cluster = GHBACluster(10, config, seed=7)
        cluster.insert_file(FileMetadata(path="/gone", inode=1), home_id=3)
        cluster.synchronize_replicas(force=True)
        cluster.delete_file("/gone")
        return cluster

    def test_refuted_l2_hit_is_forwarded_once(self, stale):
        net = stale.config.network
        origin, home = stale.servers[0], stale.servers[3]
        assert stale.group_of(0).size == 1
        result = stale.query("/gone", origin_id=0)
        assert result.level is QueryLevel.NEGATIVE
        assert result.false_forwards == 1
        # L2's forward and its reply, then the global multicast.
        assert result.messages == 2 + 2 * (stale.num_servers - 1)
        l1 = net.memory_probe_ms * max(1, origin.lru.num_filters)
        l2 = origin.probe_cost_cached(net) + net.memory_probe_ms
        forward = net.round_trip_ms()
        refuted = net.memory_probe_ms + home.fetch_penalty_cached(net)
        # The home's filter still says yes (Bloom filters cannot delete),
        # so its L4 verification is the slowest: probe + record access.
        l4 = net.global_multicast_ms(stale.num_servers) + (
            net.memory_probe_ms + net.memory_record_ms
        )
        assert result.latency_ms == pytest.approx(
            l1 + l2 + forward + refuted + l4, rel=1e-12
        )


class TestMetrics:
    def test_level_counter_accumulates(self, populated_cluster):
        cluster, placement = populated_cluster
        for path in list(placement)[:20]:
            cluster.query(path)
        assert cluster.level_counter.total() >= 20
        fractions = cluster.level_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_latency_recorder_tracks_queries(self, populated_cluster):
        cluster, placement = populated_cluster
        before = cluster.latency.count
        cluster.query(next(iter(placement)))
        assert cluster.latency.count == before + 1

    def test_replicas_per_server_matches_theta(self, small_cluster):
        for sid, theta in small_cluster.replicas_per_server().items():
            assert theta == small_cluster.servers[sid].theta

    def test_memory_bytes_per_server_positive(self, small_cluster):
        assert all(
            v > 0 for v in small_cluster.memory_bytes_per_server().values()
        )


class TestHomeOf:
    def test_home_of_finds_placement(self, populated_cluster):
        cluster, placement = populated_cluster
        path, home = next(iter(placement.items()))
        assert cluster.home_of(path) == home

    def test_home_of_none_for_absent(self, populated_cluster):
        cluster, _ = populated_cluster
        assert cluster.home_of("/nope") is None
