"""Counted cost of the home MDS's verify: filter probes per verified key.

A stored path needs no filter probe (the filter has no false negatives,
so the store's hit already says "maybe"); a path the store misses is
probed once.  This counts the keys handed to ``BloomFilter.query`` and
``BloomFilter.contains_many`` — exact on any host — on the node's
``VERIFY`` and ``VERIFY_BATCH`` and on core ``verify_batch``.
"""

import pytest

from repro.bloom.bloom_filter import BloomFilter
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.metadata.attributes import FileMetadata
from repro.prototype.messages import Message, MessageKind
from repro.prototype.node import MDSNode
from repro.prototype.transport import InProcessTransport

STORED = [f"/cost/f{index}" for index in range(8)]
ABSENT = [f"/cost/absent{index}" for index in range(8)]


@pytest.fixture
def probes(monkeypatch):
    """The running count of keys handed to a Bloom filter probe."""
    count = [0]
    query, contains_many = BloomFilter.query, BloomFilter.contains_many

    def counted_query(self, item):
        count[0] += 1
        return query(self, item)

    def counted_contains_many(self, items):
        count[0] += len(items)
        return contains_many(self, items)

    monkeypatch.setattr(BloomFilter, "query", counted_query)
    monkeypatch.setattr(BloomFilter, "contains_many", counted_contains_many)
    return count


def _node():
    node = MDSNode(0, GHBAConfig(), InProcessTransport())
    node.server.insert_many(
        [FileMetadata(path=path, inode=index) for index, path in enumerate(STORED)]
    )
    return node


def _probes_per_key(probes, paths, verify):
    before = probes[0]
    verify(paths)
    return (probes[0] - before) / len(paths)


@pytest.mark.parametrize("paths, expected", [(STORED, 0.0), (ABSENT, 1.0)])
def test_node_verify_batch(probes, paths, expected):
    node = _node()

    def verify(paths):
        reply = node._on_verify_batch(
            Message(kind=MessageKind.VERIFY_BATCH, sender=-1, payload={"paths": paths})
        )
        assert set(reply.payload["found"].values()) == {paths is STORED}

    assert _probes_per_key(probes, paths, verify) == expected


@pytest.mark.parametrize("paths, expected", [(STORED, 0.0), (ABSENT, 1.0)])
def test_node_verify(probes, paths, expected):
    node = _node()

    def verify(paths):
        for path in paths:
            reply = node._on_verify(
                Message(kind=MessageKind.VERIFY, sender=-1, payload={"path": path})
            )
            assert reply.payload["found"] is (paths is STORED)

    assert _probes_per_key(probes, paths, verify) == expected


@pytest.mark.parametrize("paths, expected", [(STORED, 0.0), (ABSENT, 1.0)])
def test_core_verify_batch(probes, paths, expected):
    cluster = GHBACluster(2, GHBAConfig(expected_files_per_mds=64), seed=1)
    for index, path in enumerate(STORED):
        cluster.insert_file(FileMetadata(path=path, inode=index), home_id=0)

    def verify(paths):
        result = cluster.verify_batch(0, paths)
        assert result.found == (len(paths) if paths is STORED else 0)

    assert _probes_per_key(probes, paths, verify) == expected
