"""Unit tests for prototype messages, transport and single nodes."""

import queue
import threading

import pytest

from repro.core.config import GHBAConfig
from repro.metadata.attributes import FileMetadata
from repro.prototype.cluster import PrototypeCluster
from repro.prototype.messages import Message, MessageKind
from repro.prototype.node import MDSNode
from repro.prototype.transport import InProcessTransport, TransportClosed
from repro.replication.standby import StandbyNode


@pytest.fixture
def config():
    return GHBAConfig(
        max_group_size=3,
        expected_files_per_mds=128,
        lru_capacity=16,
        lru_filter_bits=128,
        seed=1,
    )


@pytest.fixture
def transport():
    return InProcessTransport(default_timeout_s=5.0)


@pytest.fixture
def node(config, transport):
    node = MDSNode(0, config, transport)
    node.start()
    yield node
    node.stop()


class TestMessages:
    def test_request_ids_unique(self):
        a = Message(kind=MessageKind.PING, sender=-1)
        b = Message(kind=MessageKind.PING, sender=-1)
        assert a.request_id != b.request_id

    def test_reply_carries_request_id(self):
        request = Message(kind=MessageKind.PING, sender=-1)
        reply = request.reply(alive=True)
        assert reply.request_id == request.request_id
        assert reply.kind is MessageKind.REPLY
        assert reply.payload["alive"] is True


class TestTransport:
    def test_register_and_send(self, transport):
        mailbox = transport.register(5)
        transport.send(5, Message(kind=MessageKind.PING, sender=-1))
        assert transport.messages_sent == 1
        assert mailbox.get_nowait().kind is MessageKind.PING

    def test_duplicate_registration_rejected(self, transport):
        transport.register(5)
        with pytest.raises(ValueError):
            transport.register(5)

    def test_send_to_unknown_raises(self, transport):
        with pytest.raises(TransportClosed):
            transport.send(99, Message(kind=MessageKind.PING, sender=-1))

    def test_request_counts_both_directions(self, transport):
        mailbox = transport.register(1)

        def responder():
            message = mailbox.get(timeout=5)
            message.reply_to.put(message.reply(ok=True))

        thread = threading.Thread(target=responder, daemon=True)
        thread.start()
        reply = transport.request(1, Message(kind=MessageKind.PING, sender=-1))
        thread.join(timeout=5)
        assert reply.payload["ok"] is True
        assert transport.messages_sent == 2  # request + reply

    def test_request_timeout(self, transport):
        transport.register(1)  # nobody serving
        with pytest.raises(TimeoutError):
            transport.request(
                1, Message(kind=MessageKind.PING, sender=-1), timeout_s=0.05
            )

    def test_deregister(self, transport):
        transport.register(1)
        transport.deregister(1)
        assert 1 not in transport


class TestNode:
    def request(self, transport, node_id, kind, arrival=0.0, **payload):
        return transport.request(
            node_id,
            Message(kind=kind, sender=-1, payload=payload, arrival_vtime=arrival),
        )

    def test_ping(self, node, transport):
        reply = self.request(transport, 0, MessageKind.PING)
        assert reply.payload["alive"] is True

    def test_insert_then_verify(self, node, transport):
        meta = FileMetadata(path="/proto/f", inode=1)
        self.request(transport, 0, MessageKind.INSERT, meta=meta)
        reply = self.request(transport, 0, MessageKind.VERIFY, path="/proto/f")
        assert reply.payload["found"] is True
        assert reply.payload["home_id"] == 0

    def test_verify_absent(self, node, transport):
        reply = self.request(transport, 0, MessageKind.VERIFY, path="/ghost")
        assert reply.payload["found"] is False

    def test_probe_local_reports_l2_on_l1_miss(self, node, transport):
        meta = FileMetadata(path="/proto/g", inode=2)
        self.request(transport, 0, MessageKind.INSERT, meta=meta)
        reply = self.request(
            transport, 0, MessageKind.PROBE_LOCAL, path="/proto/g"
        )
        assert reply.payload["l1_hits"] == []
        assert reply.payload["l2_hits"] == [0]

    def test_record_lru_enables_l1(self, node, transport):
        self.request(
            transport, 0, MessageKind.RECORD_LRU, path="/hot", home_id=4
        )
        reply = self.request(transport, 0, MessageKind.PROBE_LRU, path="/hot")
        assert reply.payload["hits"] == [4]

    def test_virtual_clock_queues_requests(self, node, transport):
        """Two requests arriving at the same vtime serialize on the node."""
        first = self.request(
            transport, 0, MessageKind.VERIFY, arrival=1.0, path="/a"
        )
        second = self.request(
            transport, 0, MessageKind.VERIFY, arrival=1.0, path="/b"
        )
        assert second.payload["finish_vtime"] > first.payload["finish_vtime"]

    def test_replace_replica_on_non_host_is_dropped(self, node, transport, config):
        other = MDSNode(99, config, InProcessTransport())
        replica = other.server.publish_filter()
        reply = self.request(
            transport, 0, MessageKind.REPLACE_REPLICA, home_id=99, replica=replica
        )
        assert reply.payload["ok"] is False  # false candidate drops update

    def test_host_then_replace_replica(self, node, transport, config):
        other_transport = InProcessTransport()
        other = MDSNode(99, config, other_transport)
        self.request(
            transport, 0, MessageKind.HOST_REPLICA,
            home_id=99, replica=other.server.publish_filter(),
        )
        other.server.insert_metadata(FileMetadata(path="/fresh", inode=1))
        reply = self.request(
            transport, 0, MessageKind.REPLACE_REPLICA,
            home_id=99, replica=other.server.publish_filter(),
        )
        assert reply.payload["ok"] is True
        probe = self.request(
            transport, 0, MessageKind.PROBE_SEGMENT, path="/fresh"
        )
        assert probe.payload["hits"] == [99]

    def test_create_whose_record_names_another_path_is_refused(
        self, node, transport
    ):
        """Regression: the node stored such a create under the record's
        name and acked it as applied under the asked one."""
        create = {
            "version": 1,
            "op": "create",
            "path": "/a",
            "record": FileMetadata(path="/b", inode=1),
        }
        reply = self.request(
            transport, 0, MessageKind.MUTATE_BATCH, origin=1, mutations=[create]
        )
        assert "outcomes" not in reply.payload
        assert "'/a'" in reply.payload["error"] and "'/b'" in reply.payload["error"]
        found = self.request(
            transport, 0, MessageKind.VERIFY_BATCH, paths=["/a", "/b"]
        )
        assert found.payload["found"] == {"/a": False, "/b": False}
        assert node.server.writeback_applied == 0

    def test_unknown_kind_gets_error_reply(self, node, transport):
        reply = transport.request(
            0, Message(kind=MessageKind.REPLY, sender=-1)
        )
        assert "error" in reply.payload


class TestClusterErrorReplies:
    """Regression: the client read ``finish_vtime`` from a node's error
    reply, so a refused batch surfaced as a bare ``KeyError``."""

    @pytest.mark.parametrize(
        "call, argument, refusal",
        [
            ("verify_batch", [None], "TypeError"),
            (
                "apply_mutation_batch",
                [{"version": 1, "op": "bogus", "path": "/b"}],
                "unknown mutation op 'bogus'",
            ),
        ],
        ids=["verify_batch", "apply_mutation_batch"],
    )
    def test_error_reply_raises_value_error_naming_the_node(
        self, config, call, argument, refusal
    ):
        with PrototypeCluster(2, config, seed=1) as proto:
            with pytest.raises(ValueError, match="node 1") as raised:
                getattr(proto, call)(1, argument)
        assert refusal in str(raised.value)


class TestSharedMailboxLoop:
    """``MDSNode`` and ``StandbyNode`` run one loop
    (:class:`~repro.prototype.node.MailboxNode`): each answers its own
    kinds, ends on STOP, and STOP stays off the wire totals."""

    @pytest.mark.parametrize("kind", ["mds", "standby"])
    @pytest.mark.parametrize("wire", ["inproc", "tcp"])
    def test_serves_and_stops_cleanly(self, config, kind, wire):
        if wire == "tcp":
            from repro.net.tcp import PortMap, TcpTransport

            transport = TcpTransport(PortMap.reserve([7]), default_timeout_s=5.0)
        else:
            transport = InProcessTransport(default_timeout_s=5.0)
        try:
            if kind == "mds":
                node = MDSNode(7, config, transport)
            else:
                node = StandbyNode(7, transport)
            node.start()
            pong = transport.request(
                7, Message(kind=MessageKind.PING, sender=-1), timeout_s=5.0
            )
            assert pong.payload["alive"] is True
            sent = transport.messages_sent
            node.stop(timeout_s=5.0)
            assert not node.is_alive()
            assert transport.messages_sent == sent
            with pytest.raises((TransportClosed, TimeoutError)):
                transport.request(
                    7, Message(kind=MessageKind.PING, sender=-1), timeout_s=0.2
                )
        finally:
            if wire == "tcp":
                transport.close()
