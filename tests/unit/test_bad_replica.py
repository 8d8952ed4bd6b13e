"""A node refuses a bad replica before storing it.

``HOST_REPLICA``, ``REPLACE_REPLICA`` and ``EXCHANGE_REPLICA`` all reach
``MetadataServer.host_replica`` / ``replace_replica``, and the wire codec
admits str, int and list payloads, so any peer can hand a node a replica
that is not a Bloom filter, or a filter of another geometry.  The server
accepts only filters of its local filter's hash family — the invariant
that lets the L3 multicast test a member with one mask — and checks it
before anything is stored.

Regression: a non-filter payload used to be stored before the node failed
on it, so ``segment.home_ids()`` named it and every later ``PROBE_SEGMENT``
and ``PROBE_LOCAL`` answered ``AttributeError``; a filter of another
geometry was hosted without complaint.
"""

import pytest

from repro.bloom.bloom_filter import BloomFilter
from repro.core.config import GHBAConfig
from repro.core.server import MetadataServer
from repro.metadata.attributes import FileMetadata
from repro.prototype.messages import Message, MessageKind
from repro.prototype.node import MDSNode
from repro.prototype.transport import InProcessTransport

CONFIG = GHBAConfig(
    max_group_size=3,
    expected_files_per_mds=128,
    lru_capacity=16,
    lru_filter_bits=128,
    seed=1,
)


def _bad_replica(bad):
    if bad == "non_filter":
        return "not a filter"
    return BloomFilter(
        CONFIG.filter_num_bits * 2, CONFIG.filter_num_hashes, CONFIG.seed
    )


@pytest.fixture
def transport():
    return InProcessTransport(default_timeout_s=5.0)


@pytest.fixture
def node(transport):
    node = MDSNode(0, CONFIG, transport)
    node.start()
    yield node
    node.stop()


def _request(transport, kind, **payload):
    return transport.request(0, Message(kind=kind, sender=-1, payload=payload))


@pytest.mark.parametrize(
    "kind",
    [
        MessageKind.HOST_REPLICA,
        MessageKind.REPLACE_REPLICA,
        MessageKind.EXCHANGE_REPLICA,
    ],
    ids=lambda kind: kind.value,
)
@pytest.mark.parametrize("bad", ["non_filter", "other_geometry"])
def test_node_refuses_a_bad_replica_and_keeps_serving(node, transport, kind, bad):
    peer = MetadataServer(99, CONFIG)
    peer.insert_metadata(FileMetadata(path="/peer/f", inode=1))
    good = peer.publish_filter()
    _request(transport, MessageKind.HOST_REPLICA, home_id=99, replica=good)
    _request(
        transport, MessageKind.INSERT, meta=FileMetadata(path="/own/f", inode=2)
    )
    # A replace targets the hosted home; a host or an exchange a new one.
    home_id = 99 if kind is MessageKind.REPLACE_REPLICA else 7
    reply = _request(transport, kind, home_id=home_id, replica=_bad_replica(bad))

    assert reply.payload["error"].startswith("ValueError")
    segment = node.server.segment
    assert segment.home_ids() == [99]
    assert segment.get_replica(99) is good
    probe = _request(transport, MessageKind.PROBE_SEGMENT, path="/peer/f")
    assert probe.payload["hits"] == [99]
    local = _request(transport, MessageKind.PROBE_LOCAL, path="/own/f")
    assert local.payload["l2_hits"] == [0]


@pytest.mark.parametrize("bad", ["non_filter", "other_geometry"])
def test_server_refuses_a_bad_replica_before_storing_it(bad):
    server = MetadataServer(0, CONFIG)
    good = MetadataServer(99, CONFIG).publish_filter()
    server.host_replica(99, good)
    footprint = server.footprint_bytes
    with pytest.raises(ValueError):
        server.host_replica(7, _bad_replica(bad))
    with pytest.raises(ValueError):
        server.replace_replica(99, _bad_replica(bad))
    assert server.hosted_replicas() == [99]
    assert server.segment.get_replica(99) is good
    assert server.footprint_bytes == footprint
