"""Integration tests: whole-system behaviour across modules."""

import pytest

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.query import QueryLevel
from repro.metadata.attributes import FileMetadata
from repro.metadata.namespace import Namespace
from repro.traces.profiles import HP_PROFILE, RES_PROFILE
from repro.traces.records import MetadataOp
from repro.traces.scaling import intensify
from repro.traces.synthetic import SyntheticTraceGenerator, generate_trace


@pytest.fixture
def config():
    return GHBAConfig(
        max_group_size=4,
        expected_files_per_mds=512,
        lru_capacity=256,
        lru_filter_bits=1 << 11,
        update_threshold_bits=48,
        seed=13,
    )


class TestTraceDrivenReplay:
    def test_replay_resolves_every_known_path(self, config):
        """Full pipeline: generator -> TIF -> cluster -> queries."""
        cluster = GHBACluster(12, config, seed=13)
        base = generate_trace(HP_PROFILE, 300, 600, seed=13)
        records = intensify(base, 2)
        generator_paths = {r.path for r in records}
        placement = cluster.populate(sorted(generator_paths))
        cluster.synchronize_replicas(force=True)
        checked = 0
        for record in records[::5]:
            if record.op is MetadataOp.RENAME:
                continue
            result = cluster.query(record.path)
            assert result.found
            assert result.home_id == placement[record.path]
            checked += 1
        assert checked > 100

    def test_locality_drives_l1_dominance(self, config):
        """A skewed repeat-heavy stream must be served mostly by L1."""
        cluster = GHBACluster(8, config, seed=3)
        generator = SyntheticTraceGenerator(RES_PROFILE, 200, seed=3)
        placement = cluster.populate(generator.paths)
        cluster.synchronize_replicas(force=True)
        for record in generator.generate(4_000):
            if record.path in placement:
                cluster.query(record.path)
        fractions = cluster.level_fractions()
        assert fractions.get("L1", 0.0) > 0.4
        assert fractions.get("L1", 0.0) + fractions.get("L2", 0.0) + (
            fractions.get("L3", 0.0)
        ) > 0.95


class TestNamespaceBackedCluster:
    def test_namespace_as_source_of_truth(self, config):
        """Build MDS content from a real namespace tree; rename a directory
        in both and verify the records follow without migrating."""
        ns = Namespace()
        for i in range(60):
            ns.ensure_file(f"/proj/src/mod{i % 5}/file{i}.c")
        cluster = GHBACluster(6, config, seed=1)
        placement = {}
        for meta in ns.files():
            placement[meta.path] = cluster.insert_file(meta)
        cluster.synchronize_replicas(force=True)
        for path, home in list(placement.items())[:20]:
            assert cluster.query(path).home_id == home
        # Rename a directory in the namespace and in the cluster: each
        # record is re-keyed on its home, none migrates.
        moved = ns.rename("/proj/src/mod0", "/proj/src/renamed")
        assert moved > 1
        rekeyed = cluster.rename_subtree("/proj/src/mod0", "/proj/src/renamed")
        assert rekeyed == 12
        cluster.synchronize_replicas(force=True)
        old_names = [p for p in placement if p.startswith("/proj/src/mod0/")]
        assert len(old_names) == rekeyed
        for old in old_names:
            new = "/proj/src/renamed" + old[len("/proj/src/mod0"):]
            result = cluster.query(new)
            assert result.found and result.home_id == placement[old], new
            assert not cluster.query(old).found, old


class TestMemoryPressureEffect:
    def test_hba_slower_than_ghba_under_pressure(self):
        """The Figure 8 mechanism end to end at miniature scale."""
        import dataclasses

        from repro.baselines.hba import HBACluster

        base = GHBAConfig(
            max_group_size=4,
            expected_files_per_mds=512,
            lru_capacity=64,
            lru_filter_bits=512,
            seed=2,
        )
        n = 12
        paths = [f"/mem/f{i}" for i in range(400)]
        # Measure HBA's unconstrained working set, then give both schemes
        # 60% of it — the regime where HBA's replica array spills but
        # G-HBA's (theta ~ N/M times smaller) largely fits.
        probe = HBACluster(n, base, seed=2)
        probe.populate(paths)
        working_set = sum(
            server.footprint_bytes for server in probe.servers.values()
        ) / n
        config = dataclasses.replace(
            base, memory_budget_bytes=int(working_set * 0.6)
        )
        results = {}
        for name, cluster in (
            ("ghba", GHBACluster(n, config, seed=2)),
            ("hba", HBACluster(n, config, seed=2)),
        ):
            cluster.populate(paths)
            cluster.synchronize_replicas(force=True)
            for path in paths:
                cluster.query(path)
            results[name] = cluster.latency.mean
        assert results["hba"] > results["ghba"]


class TestDynamicWorkflow:
    def test_growth_then_shrink_under_traffic(self, config):
        """Interleave queries with reconfiguration, always correct."""
        cluster = GHBACluster(6, config, seed=4)
        paths = [f"/mix/f{i}" for i in range(200)]
        placement = cluster.populate(paths)
        cluster.synchronize_replicas(force=True)
        for round_index in range(3):
            cluster.add_server()
            for path in paths[::17]:
                assert cluster.query(path).home_id == placement[path]
            cluster.check_invariants()
        for round_index in range(3):
            victims = [
                sid for sid in cluster.server_ids()
            ]
            cluster.remove_server(victims[round_index])
            cluster.synchronize_replicas(force=True)
            for path in paths[::17]:
                result = cluster.query(path)
                assert result.found
            cluster.check_invariants()

    def test_new_files_after_growth_are_routable(self, config):
        cluster = GHBACluster(6, config, seed=5)
        cluster.populate(f"/old/f{i}" for i in range(100))
        cluster.synchronize_replicas(force=True)
        report = cluster.add_server()
        newcomer = report.server_id
        cluster.insert_file(
            FileMetadata(path="/new/on-newcomer", inode=1), home_id=newcomer
        )
        cluster.synchronize_replicas(force=True)
        result = cluster.query("/new/on-newcomer")
        assert result.home_id == newcomer
