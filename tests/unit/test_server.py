"""Unit tests for MetadataServer."""

import pytest

from repro.core.config import GHBAConfig
from repro.core.server import MetadataServer
from repro.metadata.attributes import FileMetadata


@pytest.fixture
def config():
    return GHBAConfig(
        expected_files_per_mds=256,
        lru_capacity=32,
        lru_filter_bits=256,
        seed=5,
    )


@pytest.fixture
def server(config):
    return MetadataServer(0, config)


def meta(path, inode=1):
    return FileMetadata(path=path, inode=inode)


class TestHomeMetadata:
    def test_insert_reflects_in_store_and_filter(self, server):
        server.insert_metadata(meta("/f"))
        assert server.has_metadata("/f")
        assert server.local_filter.query("/f")
        assert server.file_count == 1

    def test_verify_and_fetch_found(self, server):
        record = meta("/f")
        server.insert_metadata(record)
        assert server.verify_and_fetch("/f") == record

    def test_verify_and_fetch_filter_negative_short_circuits(self, server):
        """A negative filter answer must not touch the store."""
        server.store.get = lambda path: pytest.fail(f"store read for {path}")
        assert server.verify_and_fetch("/absent") is None

    def test_remove_keeps_filter_bit_until_rebuild(self, server):
        server.insert_metadata(meta("/f"))
        assert server.remove_metadata("/f") is True
        assert not server.has_metadata("/f")
        # Plain Bloom filters cannot delete: the stale bit remains...
        assert server.local_filter.query("/f")
        # ...until the filter is rebuilt from the store.
        server.rebuild_local_filter()
        assert not server.local_filter.query("/f")

    def test_remove_missing_returns_false(self, server):
        assert server.remove_metadata("/ghost") is False

    def test_insert_many_counts_once(self, server):
        server.insert_many([meta(f"/f{i}", i) for i in range(10)])
        assert server.file_count == 10

    def test_reinsert_does_not_double_count_memory(self, server):
        server.insert_metadata(meta("/f"))
        bytes_before = server.footprint_bytes
        server.insert_metadata(meta("/f"))
        assert server.footprint_bytes == bytes_before

    def test_record_mutations_carry_l1_growth_into_the_memory_model(self, server):
        """The L1 array grows on the query path; the next insert or delete
        is what re-reads its footprint, and not before."""
        server.memory_budget_bytes = server.footprint_bytes + 1
        before = server.footprint_bytes
        for home_id in range(3):
            server.record_lru(f"/seen/{home_id}", home_id)
        assert server.lru.size_bytes() > 0
        assert server.footprint_bytes == before
        assert server.resident_fraction == 1.0
        server.insert_metadata(meta("/f"))
        assert server.footprint_bytes == (
            before + server.lru.size_bytes() + meta("/f").size_bytes()
        )
        assert server.resident_fraction < 1.0
        server.record_lru("/seen/3", 3)
        server.remove_metadata("/f")
        assert server.footprint_bytes == before + server.lru.size_bytes()

    def test_cost_memos_rederive_after_a_refresh_and_not_otherwise(self, server):
        net = CountingNet(server.config.network)
        costs = lambda: server.probe_cost_cached(net) + server.fetch_penalty_cached(net)
        costs()
        reads = net.reads
        costs()
        server.record_lru("/seen", 3)
        costs()
        assert net.reads == reads > 0
        server.insert_metadata(meta("/f"))
        costs()
        assert net.reads == 2 * reads


class CountingNet:
    """A network model that counts the attributes read from it."""

    def __init__(self, net):
        self.net, self.reads = net, 0

    def __getattr__(self, name):
        self.reads += 1
        return getattr(self.net, name)


class TestReplicaHosting:
    def test_host_and_drop(self, server, config):
        other = MetadataServer(1, config)
        other.insert_metadata(meta("/on-other"))
        server.host_replica(1, other.publish_filter())
        assert server.theta == 1
        assert server.probe_segment("/on-other").unique_hit == 1
        server.drop_replica(1)
        assert server.theta == 0

    def test_probe_segment_includes_own_filter(self, server):
        server.insert_metadata(meta("/local"))
        lookup = server.probe_segment("/local")
        assert lookup.unique_hit == 0  # the server's own ID

    def test_replace_replica_changes_answers(self, server, config):
        other = MetadataServer(1, config)
        server.host_replica(1, other.publish_filter())
        other.insert_metadata(meta("/new-file"))
        assert not server.probe_segment("/new-file").hits
        server.replace_replica(1, other.publish_filter())
        assert server.probe_segment("/new-file").unique_hit == 1

    def test_memory_accounting_tracks_replicas(self, server, config):
        before = server.footprint_bytes
        replica = MetadataServer(1, config).publish_filter()
        server.host_replica(1, replica)
        assert server.footprint_bytes == before + replica.size_bytes()
        server.drop_replica(1)
        assert server.footprint_bytes == before


class TestLRU:
    def test_record_and_probe(self, server):
        server.record_lru("/hot", 7)
        assert server.probe_lru("/hot").unique_hit == 7

    def test_probe_miss_for_cold(self, server):
        assert server.probe_lru("/cold").is_miss


class TestPublication:
    def test_publish_snapshots(self, server):
        server.insert_metadata(meta("/f"))
        replica = server.publish_filter()
        assert replica.query("/f")
        assert server.staleness_bits() == 0

    def test_staleness_grows_with_unpublished_inserts(self, server):
        server.publish_filter()
        server.insert_metadata(meta("/new1"))
        server.insert_metadata(meta("/new2"))
        assert server.staleness_bits() > 0

    def test_published_replica_is_independent(self, server):
        replica = server.publish_filter()
        server.insert_metadata(meta("/after"))
        assert not replica.query("/after")

    def test_rejects_negative_id(self, config):
        with pytest.raises(ValueError):
            MetadataServer(-1, config)
