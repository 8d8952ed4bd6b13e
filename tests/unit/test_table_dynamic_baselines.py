"""Unit tests for the table-mapping and dynamic-subtree baselines."""

import pytest

from repro.baselines.dynamic_subtree import DynamicSubtreePartition
from repro.baselines.table_mapping import TableMappingCluster
from repro.metadata.attributes import FileMetadata


class TestTableMapping:
    @pytest.fixture
    def cluster(self):
        cluster = TableMappingCluster(6)
        cluster.populate(f"/t/d{d}/f{i}" for d in range(4) for i in range(30))
        return cluster

    def test_lookup_exact(self, cluster):
        meta = cluster.lookup("/t/d1/f3")
        assert meta is not None and meta.path == "/t/d1/f3"
        assert cluster.home_of("/t/d1/f3") is not None

    def test_lookup_missing_none(self, cluster):
        assert cluster.home_of("/nope") is None
        assert cluster.lookup("/nope") is None

    def test_no_false_routing_ever(self, cluster):
        """The table is exact — every entry resolves to its true store."""
        for d in range(4):
            for i in range(0, 30, 7):
                path = f"/t/d{d}/f{i}"
                home = cluster.home_of(path)
                assert cluster._stores[home][path].path == path

    def test_placement_balances_by_count(self, cluster):
        assert cluster.load_imbalance() <= 1.2

    def test_add_server_migrates_nothing(self, cluster):
        """Table 1's claim: table-based mapping has zero migration cost."""
        report = cluster.add_server()
        assert report["migrated_records"] == 0
        assert cluster.num_servers == 7
        assert cluster.lookup("/t/d0/f0") is not None

    def test_remove_server_moves_only_its_records(self, cluster):
        total = cluster.file_count
        victim_records = len(cluster._stores[2])
        report = cluster.remove_server(2)
        assert report["migrated_records"] == victim_records
        assert cluster.file_count == total
        for d in range(4):
            assert cluster.lookup(f"/t/d{d}/f1") is not None

    def test_remove_last_rejected(self):
        with pytest.raises(ValueError):
            TableMappingCluster(1).remove_server(0)

    def test_memory_grows_linearly_with_files(self):
        small = TableMappingCluster(4)
        small.populate(f"/m/f{i}" for i in range(100))
        large = TableMappingCluster(4)
        large.populate(f"/m/f{i}" for i in range(200))
        assert large.table_bytes_per_server() > 1.8 * (
            small.table_bytes_per_server()
        )

    def test_lookup_probe_count_logarithmic(self, cluster):
        import math

        assert cluster.lookup_probe_count("/t/d0/f0") == math.ceil(
            math.log2(cluster.file_count)
        )


class TestDynamicSubtree:
    def make(self, servers=3, dirs=6):
        return DynamicSubtreePartition(
            {"/": 0, **{f"/d{i}": i % servers for i in range(dirs)}}
        )

    def test_lookup_longest_prefix(self):
        part = self.make()
        assert part.home_of("/d1/file") == 1
        assert part.home_of("/other") == 0  # root fallback

    def test_requires_root(self):
        with pytest.raises(ValueError):
            DynamicSubtreePartition({"/d": 1})

    def test_rebalance_moves_hot_subtree(self):
        part = self.make()
        # Hammer two subtrees both assigned to server 0.
        for _ in range(300):
            part.query("/d0/x")
            part.query("/d3/y")
        before = part.load_imbalance()
        moved = part.rebalance()
        assert moved >= 1
        assert part.load_imbalance() < before
        # One of the hot subtrees left server 0.
        homes = {part.home_of("/d0/x"), part.home_of("/d3/y")}
        assert homes != {0}

    def test_rebalance_noop_when_balanced(self):
        part = self.make()
        for i in range(6):
            for _ in range(50):
                part.query(f"/d{i}/f")
        assert part.rebalance() == 0

    def test_root_never_migrates(self):
        part = DynamicSubtreePartition({"/": 0, "/d0": 0})
        for _ in range(500):
            part.query("/elsewhere")  # lands on "/"
        part.rebalance()
        assert part.home_of("/elsewhere") == 0

    def test_migrations_counter(self):
        part = self.make()
        for _ in range(400):
            part.query("/d0/x")
            part.query("/d3/x")
        part.rebalance()
        assert part.migrations == part.rebalance() + part.migrations

    def test_queries_still_resolve_after_moves(self):
        part = self.make()
        for _ in range(300):
            part.query("/d0/hot")
            part.query("/d3/hot")
        part.rebalance()
        for i in range(6):
            assert isinstance(part.home_of(f"/d{i}/f"), int)
