"""Unit tests for the HBA, BFA, hash-placement and subtree baselines."""

import dataclasses

import pytest

from repro.baselines.bfa import bfa_memory_bytes_per_server
from repro.baselines.comparison import COMPARISON_TABLE, format_table
from repro.baselines.hash_placement import (
    HashPlacementGroup,
    hash_join_migrations,
)
from repro.baselines.hba import HBACluster
from repro.baselines.subtree import StaticSubtreePartition
from repro.core.query import QueryLevel
from repro.metadata.attributes import FileMetadata


class TestHBA:
    @pytest.fixture
    def hba(self, small_config):
        cluster = HBACluster(8, small_config, seed=2)
        paths = [f"/h/d{i % 4}/f{i}" for i in range(400)]
        placement = cluster.populate(paths)
        cluster.synchronize_replicas(force=True)
        return cluster, placement

    def test_every_server_holds_full_mirror(self, small_config):
        cluster = HBACluster(8, small_config)
        for server in cluster.servers.values():
            assert server.theta == 7

    def test_queries_resolve_locally(self, hba):
        cluster, placement = hba
        for path, home in list(placement.items())[::13]:
            result = cluster.query(path)
            assert result.home_id == home
            assert result.level in (QueryLevel.L1, QueryLevel.L2)

    def test_negative_falls_to_multicast(self, hba):
        cluster, _ = hba
        result = cluster.query("/nope")
        assert not result.found
        assert result.level is QueryLevel.NEGATIVE

    def test_lru_learns(self, hba):
        cluster, placement = hba
        path = next(iter(placement))
        cluster.query(path, origin_id=0)
        assert cluster.query(path, origin_id=0).level is QueryLevel.L1

    def test_add_server_migrates_full_mirror(self, small_config):
        cluster = HBACluster(8, small_config)
        report = cluster.add_server()
        assert report.migrated_replicas == 8  # the paper's Figure 11 line
        assert report.messages == 16  # exchange with every existing MDS
        assert cluster.servers[report.server_id].theta == 8

    def test_update_reaches_everyone(self, small_config):
        cluster = HBACluster(8, small_config)
        report = cluster.update_server_replicas(0)
        assert report.messages == 7

    def test_remove_server(self, small_config):
        # The plan charges both ends of a departure: the three survivors
        # drop their replica of MDS 2 and MDS 2 drops the three it held.
        # (The pre-ISSUE-18 class counted the survivors' half only, 3.)
        cluster = HBACluster(4, small_config)
        report = cluster.remove_server(2, rehome=False)
        assert report.messages == 6
        for server in cluster.servers.values():
            assert 2 not in server.segment
            assert server.theta == 2

    def test_synchronize_threshold(self, small_config):
        cluster = HBACluster(4, small_config)
        cluster.synchronize_replicas(force=True)
        cluster.insert_file(FileMetadata(path="/one", inode=1), home_id=0)
        report = cluster.synchronize_replicas(force=False)
        assert report.servers_updated == 0  # below threshold


class TestBFA:
    def test_bits_per_file_override(self, small_config):
        """BFA8 / BFA16 are the array a live HBA cluster holds at that bit
        ratio, LRU aside — and the formula says the same bytes."""
        array_bytes = {}
        for bits in (8.0, 16.0):
            config = dataclasses.replace(small_config, bits_per_file=bits)
            server = HBACluster(4, config).servers[0]
            array_bytes[bits] = (
                server.segment.size_bytes() + server.local_filter.size_bytes()
            )
            assert array_bytes[bits] == bfa_memory_bytes_per_server(
                4, config.expected_files_per_mds, bits
            )
        assert array_bytes[16.0] == 2 * array_bytes[8.0]

    def test_analytic_memory_matches_linear_scaling(self):
        small = bfa_memory_bytes_per_server(10, 1000, 8.0)
        large = bfa_memory_bytes_per_server(20, 1000, 8.0)
        assert large == 2 * small
        assert bfa_memory_bytes_per_server(10, 1000, 16.0) == 2 * small

    def test_analytic_memory_validation(self):
        with pytest.raises(ValueError):
            bfa_memory_bytes_per_server(0, 10, 8.0)
        with pytest.raises(ValueError):
            bfa_memory_bytes_per_server(1, 0, 8.0)


class TestHashPlacement:
    def test_placement_deterministic(self):
        group = HashPlacementGroup([0, 1, 2], seed=4)
        assert group.target_of(50) == group.target_of(50)

    def test_place_and_host(self):
        group = HashPlacementGroup([0, 1, 2])
        host = group.place(50)
        assert group.host_of(50) == host
        assert 50 in group.replicas_on(host)

    def test_double_place_rejected(self):
        group = HashPlacementGroup([0, 1])
        group.place(5)
        with pytest.raises(ValueError):
            group.place(5)

    def test_join_migrates_most_replicas(self):
        """The Section 2.4 argument: ~(1 - 1/(M'+1)) of replicas move."""
        group = HashPlacementGroup(list(range(5)), seed=1)
        replicas = list(range(10, 110))
        group.place_all(replicas)
        migrated = group.add_member(99)
        expected = len(replicas) * (1 - 1 / 6)
        assert migrated == pytest.approx(expected, rel=0.35)

    def test_leave_rehashes(self):
        group = HashPlacementGroup(list(range(4)), seed=2)
        group.place_all(range(10, 60))
        migrated = group.remove_member(0)
        assert migrated > 0
        assert all(group.host_of(r) != 0 for r in range(10, 60))

    def test_cannot_remove_last(self):
        group = HashPlacementGroup([1])
        with pytest.raises(ValueError):
            group.remove_member(1)

    def test_hash_join_migrations_between_bounds(self):
        migrated = hash_join_migrations(60, 7, seed=0)
        assert 0 < migrated <= 60 - 7

    def test_hash_join_exceeds_ghba_cost(self):
        """Figure 11's ordering for a representative point."""
        n, m = 60, 7
        ghba_cost = (n - m) // (m + 1) + 1
        assert hash_join_migrations(n, m) > ghba_cost


class TestStaticSubtree:
    def make(self):
        return StaticSubtreePartition(
            {"/": 0, "/home": 1, "/home/alice": 2, "/var": 3}
        )

    def test_longest_prefix_wins(self):
        part = self.make()
        assert part.home_of("/home/alice/doc.txt") == 2
        assert part.home_of("/home/bob/doc.txt") == 1
        assert part.home_of("/etc/passwd") == 0

    def test_requires_root(self):
        with pytest.raises(ValueError):
            StaticSubtreePartition({"/home": 1})

    def test_no_migration_on_join(self):
        assert self.make().migration_cost_on_join == 0

    def test_skew_measurable(self):
        part = self.make()
        for _ in range(90):
            part.query("/home/alice/hot")
        for _ in range(10):
            part.query("/var/log")
        assert part.load_imbalance() > 1.5
        assert part.server_loads()[2] == 90

    def test_divide_evenly(self):
        part = StaticSubtreePartition.divide_evenly(
            ["/a", "/b", "/c"], [0, 1]
        )
        homes = {part.home_of(p) for p in ("/a/x", "/b/x", "/c/x")}
        assert homes == {0, 1}

    def test_lookup_depth(self):
        part = self.make()
        assert part.lookup_depth("/home/alice/f") >= 1
        assert part.lookup_depth("/") == 1


class TestComparisonTable:
    def test_all_schemes_present(self):
        assert "g_hba" in COMPARISON_TABLE
        assert len(COMPARISON_TABLE) == 6

    def test_ghba_row_claims(self):
        traits = COMPARISON_TABLE["g_hba"]
        assert traits.lookup_time == "O(1)"
        assert traits.migration_cost == "Small"
        assert traits.memory_overhead == "O(n/m)"

    def test_format_renders_all_rows(self):
        rendered = format_table()
        for scheme in COMPARISON_TABLE:
            assert scheme in rendered
