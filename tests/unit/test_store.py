"""Unit tests for the metadata store and the memory tier of its records."""

import pytest

from repro.core.config import GHBAConfig
from repro.core.server import MetadataServer
from repro.metadata.attributes import FileMetadata
from repro.metadata.store import MetadataStore


def record(path: str) -> FileMetadata:
    return FileMetadata(path=path, inode=abs(hash(path)) % 10_000)


def loaded_server(budget=None):
    server = MetadataServer(
        0, GHBAConfig(expected_files_per_mds=64, memory_budget_bytes=budget)
    )
    server.insert_many([record(f"/y{i}") for i in range(5)])
    return server


class TestUnbounded:
    def test_put_get(self):
        store = MetadataStore()
        meta = record("/f")
        store.put(meta)
        assert store.get("/f") == meta

    def test_miss(self):
        store = MetadataStore()
        assert store.get("/ghost") is None

    def test_overwrite_replaces(self):
        store = MetadataStore()
        store.put(record("/f"))
        newer = FileMetadata(path="/f", inode=1, size=99)
        store.put(newer)
        assert store.get("/f").size == 99
        assert len(store) == 1

    def test_remove(self):
        store = MetadataStore()
        store.put(record("/f"))
        assert store.remove("/f") is True
        assert "/f" not in store

    def test_remove_missing(self):
        store = MetadataStore()
        assert store.remove("/ghost") is False

    def test_everything_stays_in_memory(self):
        store = MetadataStore()
        for i in range(100):
            store.put(record(f"/f{i}"))
        assert len(store) == 100
        assert all(f"/f{i}" in store for i in range(100))


class TestRecency:
    """Checkpoint record lists and the re-home pairing of a departing
    server read this order (DESIGN.md §17)."""

    def test_put_of_an_existing_path_reappends(self):
        store = MetadataStore()
        for i in range(3):
            store.put(record(f"/x{i}"))
        store.put(FileMetadata(path="/x1", inode=7))
        assert [meta.path for meta in store.records()] == ["/x0", "/x2", "/x1"]
        assert store.get("/x1").inode == 7

    def test_records_order_after_a_remove(self):
        store = MetadataStore()
        for i in range(4):
            store.put(record(f"/x{i}"))
        store.remove("/x1")
        assert "/x2" in store  # a membership test does not promote
        assert [meta.path for meta in store.records()] == ["/x0", "/x2", "/x3"]


class TestTiering:
    """Past its budget an MDS's records go partly to disk.  The store
    holds every record; the server's one resident fraction is the tier,
    and a record fetch pays memory for that share and disk for the rest."""

    def test_spills_when_over_budget(self):
        server = loaded_server()
        net = server.config.network
        server.memory_budget_bytes = server.footprint_bytes - 1
        assert 0.0 < server.resident_fraction < 1.0
        assert net.memory_record_ms < server.fetch_penalty_cached(net)

    def test_lru_order_spills_coldest(self):
        """A ``get`` hit moves last; the coldest record, which once
        spilled first, leads the order."""
        store = MetadataStore()
        for i in range(3):
            store.put(record(f"/x{i}"))
        store.get("/x0")
        store.get("/ghost")
        assert list(store.paths()) == ["/x1", "/x2", "/x0"]

    def test_shrinking_budget_spills_immediately(self):
        server = loaded_server()
        assert server.resident_fraction == 1.0
        server.memory_budget_bytes = server.footprint_bytes // 4
        assert server.resident_fraction == pytest.approx(0.25, abs=1e-3)

    def test_zero_budget_spills_everything(self):
        server = loaded_server(budget=0)
        net = server.config.network
        assert server.resident_fraction == 0.0
        assert server.fetch_penalty_cached(net) == net.disk_access_ms
        assert server.verify_and_fetch("/y0") is not None  # read from disk

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            GHBAConfig(memory_budget_bytes=-1)
        with pytest.raises(ValueError):
            loaded_server().memory_budget_bytes = -1


class TestIterationAndStats:
    def test_clear(self):
        store = MetadataStore()
        store.put(record("/f"))
        store.clear()
        assert len(store) == 0
