"""Unit tests for cluster checkpoint / restore."""

import json

import pytest

from repro.core import checkpoint
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.query import QueryLevel
from repro.metadata.attributes import FileMetadata


@pytest.fixture
def live_cluster(small_config):
    cluster = GHBACluster(8, small_config, seed=3)
    cluster.populate(f"/ckpt/d{i % 4}/f{i}" for i in range(240))
    cluster.synchronize_replicas(force=True)
    return cluster


class TestRoundTrip:
    def test_restore_preserves_routing(self, live_cluster, tmp_path):
        placement = {
            path: live_cluster.home_of(path)
            for path in [f"/ckpt/d{i % 4}/f{i}" for i in range(0, 240, 11)]
        }
        path = tmp_path / "cluster.json"
        size = checkpoint.save(live_cluster, path)
        assert size > 0
        restored = checkpoint.load(path)
        restored.check_invariants()
        for file_path, home in placement.items():
            result = restored.query(file_path)
            assert result.found
            assert result.home_id == home

    def test_restore_preserves_structure(self, live_cluster, tmp_path):
        path = tmp_path / "cluster.json"
        checkpoint.save(live_cluster, path)
        restored = checkpoint.load(path)
        assert restored.num_servers == live_cluster.num_servers
        assert restored.num_groups == live_cluster.num_groups
        assert restored.replicas_per_server() == (
            live_cluster.replicas_per_server()
        )
        for group_id, group in live_cluster.groups.items():
            assert restored.groups[group_id].member_ids() == group.member_ids()
            assert restored.groups[group_id].idbfa.placements() == (
                group.idbfa.placements()
            )

    def test_restore_preserves_filters_bitwise(self, live_cluster, tmp_path):
        path = tmp_path / "cluster.json"
        checkpoint.save(live_cluster, path)
        restored = checkpoint.load(path)
        for server_id, server in live_cluster.servers.items():
            assert restored.servers[server_id].local_filter == (
                server.local_filter
            )
            assert restored.servers[server_id].published_filter == (
                server.published_filter
            )

    def test_negative_lookups_after_restore(self, live_cluster, tmp_path):
        path = tmp_path / "cluster.json"
        checkpoint.save(live_cluster, path)
        restored = checkpoint.load(path)
        result = restored.query("/never/existed")
        assert not result.found
        assert result.level is QueryLevel.NEGATIVE

    def test_restored_cluster_fully_operational(self, live_cluster, tmp_path):
        """Restore, then keep operating: inserts, syncs, reconfiguration."""
        path = tmp_path / "cluster.json"
        checkpoint.save(live_cluster, path)
        restored = checkpoint.load(path)
        restored.insert_file(
            FileMetadata(path="/after/restore", inode=999), home_id=0
        )
        restored.synchronize_replicas(force=True)
        assert restored.query("/after/restore").home_id == 0
        restored.add_server()
        restored.check_invariants()

    def test_snapshot_is_json_serializable(self, live_cluster):
        document = checkpoint.snapshot(live_cluster)
        json.dumps(document)  # must not raise

    def test_lru_state_not_persisted(self, live_cluster, tmp_path):
        """Caches are rebuilt, not restored (documented behaviour)."""
        hot = "/ckpt/d0/f0"
        live_cluster.query(hot, origin_id=0)
        assert live_cluster.query(hot, origin_id=0).level is QueryLevel.L1
        path = tmp_path / "cluster.json"
        checkpoint.save(live_cluster, path)
        restored = checkpoint.load(path)
        first = restored.query(hot, origin_id=0)
        assert first.level is not QueryLevel.L1


class TestFormatGuards:
    def test_version_mismatch_rejected(self, live_cluster):
        document = checkpoint.snapshot(live_cluster)
        document["format_version"] = 999
        with pytest.raises(ValueError, match="format"):
            checkpoint.restore(document)

    def test_version_1_document_with_memory_mode_rejected(self, live_cluster):
        """Refused with the typed error, not a TypeError from the config."""
        document = checkpoint.snapshot(live_cluster)
        document["format_version"] = 1
        document["config"]["memory_mode"] = "proportional"
        with pytest.raises(checkpoint.CheckpointError, match="format 1"):
            checkpoint.restore(document)

    def test_version_2_document_with_cooperative_lru_rejected(self, live_cluster):
        """``cooperative_lru`` folded into ``cooperative_fanout`` (0 = off)."""
        document = checkpoint.snapshot(live_cluster)
        document["format_version"] = 2
        document["config"]["cooperative_lru"] = False
        with pytest.raises(checkpoint.CheckpointError, match="format 2"):
            checkpoint.restore(document)

    def test_version_3_document_with_heartbeat_timing_rejected(self, live_cluster):
        """The heartbeat timing left the config for ``repro.core.failure``."""
        document = checkpoint.snapshot(live_cluster)
        document["format_version"] = 3
        document["config"]["heartbeat_interval_s"] = 1.0
        document["config"]["heartbeat_timeout_s"] = 3.0
        with pytest.raises(checkpoint.CheckpointError, match="format 3"):
            checkpoint.restore(document)

    def test_unknown_config_field_rejected(self, live_cluster):
        document = checkpoint.snapshot(live_cluster)
        document["config"]["max_grup_size"] = 4
        with pytest.raises(checkpoint.CheckpointError, match="max_grup_size"):
            checkpoint.restore(document)

    def test_missing_config_rejected(self, live_cluster):
        document = checkpoint.snapshot(live_cluster)
        del document["config"]
        with pytest.raises(checkpoint.CheckpointError, match="no config"):
            checkpoint.restore(document)

    def test_config_that_is_not_a_mapping_rejected(self, live_cluster):
        document = checkpoint.snapshot(live_cluster)
        document["config"] = list(document["config"].values())
        with pytest.raises(checkpoint.CheckpointError, match="got list"):
            checkpoint.restore(document)

    def test_config_field_left_out_keeps_its_default(self):
        config = checkpoint.config_from_dict({"max_group_size": 3})
        assert config == GHBAConfig(max_group_size=3)

    def test_config_out_of_range_keeps_its_value_error(self):
        with pytest.raises(ValueError) as raised:
            checkpoint.config_from_dict({"max_group_size": 0})
        assert not isinstance(raised.value, checkpoint.CheckpointError)

    def test_config_round_trips_every_field(self, small_config):
        data = checkpoint.config_to_dict(small_config)
        assert checkpoint.config_from_dict(json.loads(json.dumps(data))) == small_config
        assert list(data)[:2] == ["max_group_size", "bits_per_file"]

    def test_corrupt_payload_rejected(self, live_cluster, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(checkpoint.CheckpointError):
            checkpoint.load(path)
        # CheckpointError subclasses ValueError, so pre-existing broad
        # handlers keep working.
        with pytest.raises(ValueError):
            checkpoint.load(path)

    def test_truncated_file_rejected_with_typed_error(
        self, live_cluster, tmp_path
    ):
        """A torn write (simulated by chopping a valid checkpoint in
        half) must raise CheckpointError, never half-restore."""
        path = tmp_path / "torn.json"
        checkpoint.save(live_cluster, path)
        payload = path.read_text()
        path.write_text(payload[: len(payload) // 2])
        with pytest.raises(checkpoint.CheckpointError, match="corrupt"):
            checkpoint.load(path)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(checkpoint.CheckpointError, match="object"):
            checkpoint.load(path)


class TestAtomicWrite:
    def test_save_leaves_no_temp_file(self, live_cluster, tmp_path):
        path = tmp_path / "cluster.json"
        checkpoint.save(live_cluster, path)
        assert path.exists()
        assert list(tmp_path.iterdir()) == [path]

    def test_atomic_write_replaces_existing(self, tmp_path):
        path = tmp_path / "doc.json"
        checkpoint.atomic_write_text(path, "old")
        checkpoint.atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert list(tmp_path.iterdir()) == [path]


class TestRestoredClusterCounts:
    """A restored cluster is built the way the cluster builds its own
    servers and groups, so it counts into its registry like the live one.
    (Restore used to build each server with no registry and each group
    as a bare ``Group(gid)``: a restored twin, the replication standby
    included, counted 0 probes and 0 replica-update messages.)"""

    @staticmethod
    def _total(cluster, family):
        metric = cluster.metrics.get(family)
        return {key: child.value for key, child in metric.children()}

    def test_restored_twin_counts_probes_and_updates_like_the_live_one(self):
        config = GHBAConfig(
            max_group_size=3, expected_files_per_mds=64, lru_capacity=16,
            lru_filter_bits=128, seed=2,
        )
        live = GHBACluster(6, config, seed=4)
        paths = [f"/count/d{i % 7}/f{i}" for i in range(200)]
        live.populate(paths)
        live.synchronize_replicas(force=True)
        twin = checkpoint.restore(checkpoint.snapshot(live))
        family = "ghba_replica_update_messages_total"
        before = self._total(live, family)
        for cluster in (live, twin):
            for index in range(50):
                cluster.query(paths[index * 3], origin_id=index % 6)
            cluster.synchronize_replicas(force=True)
        probes = self._total(live, "ghba_server_probes_total")
        assert sum(probes.values()) > 0
        assert self._total(twin, "ghba_server_probes_total") == probes
        messages = {
            key: value - before[key]
            for key, value in self._total(live, family).items()
        }
        assert sum(messages.values()) > 0
        assert self._total(twin, family) == messages
