"""Unit tests for MetadataServer."""

import pytest

from repro.core.config import GHBAConfig
from repro.core.server import (
    CONSUMER_METADATA,
    CONSUMER_REPLICAS,
    MetadataServer,
)
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
        before = server.store.stats.total_lookups
        assert server.verify_and_fetch("/absent") is None
        assert server.store.stats.total_lookups == before

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
        bytes_before = server.memory.consumer_bytes(CONSUMER_METADATA)
        server.insert_metadata(meta("/f"))
        assert server.memory.consumer_bytes(CONSUMER_METADATA) == bytes_before

    def test_record_mutations_carry_l1_growth_into_the_memory_model(self, server):
        """The L1 array grows on the query path; the next insert or delete
        is what re-reads its footprint (ISSUE 16 kept that when it stopped
        re-reading the two footprints a record mutation cannot move)."""
        for home_id in range(3):
            server.record_lru(f"/seen/{home_id}", home_id)
        assert server.memory.consumer_bytes("lru_array") == 0
        token = server.memory._residency()
        server.insert_metadata(meta("/f"))
        assert server.memory.consumer_bytes("lru_array") == server.lru.size_bytes() > 0
        assert server.lru.size_bytes() == sum(
            bloom.size_bytes() for bloom in server.lru._filters.values()
        )
        # A fresh residency dict: the *_cached latency memos re-derive.
        assert server.memory._residency() is not token
        token = server.memory._residency()
        server.remove_metadata("/f")
        assert server.memory._residency() is not token


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
        before = server.memory.consumer_bytes(CONSUMER_REPLICAS)
        server.host_replica(1, MetadataServer(1, config).publish_filter())
        assert server.memory.consumer_bytes(CONSUMER_REPLICAS) > before


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
