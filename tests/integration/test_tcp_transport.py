"""The TCP transport must behave exactly like the in-process one.

These tests run real MDS node threads behind real localhost sockets
(one :class:`~repro.net.tcp.TcpTransport` hosting the fleet, a second
acting as the client) and assert the parity claims the subsystem makes:
same request/gather surface, same fault-injection boundary, same retry
counters, same graceful-shutdown semantics (a dead peer is
``unreachable`` in a :class:`~repro.net.reliability.GatherResult`, not
an exception), and crash/restart through the existing checkpoint
machinery.
"""

import re
import socket
import sys
import threading

import pytest

from repro.core.checkpoint import restore_server, snapshot_server
from repro.core.config import GHBAConfig
from repro.faults.injector import FaultPlan, PlanFaultInjector
from repro.faults.retry import RetryPolicy
from repro.metadata.attributes import FileMetadata
from repro.net.reliability import TransportClosed
from repro.net.tcp import PortMap, TcpTransport
from repro.obs.registry import MetricsRegistry
from repro.obs.report import transport_report
from repro.prototype.messages import Message, MessageKind
from repro.prototype.node import MDSNode
from repro.prototype.transport import InProcessTransport


def _config():
    return GHBAConfig(expected_files_per_mds=512, lru_capacity=64)


def _start_fleet(portmap, node_ids, config=None, servers=None):
    """One transport hosting ``node_ids`` as node threads."""
    config = config or _config()
    transport = TcpTransport(portmap, default_timeout_s=5.0)
    nodes = {}
    for node_id in node_ids:
        server = servers.get(node_id) if servers else None
        node = MDSNode(node_id, config, transport, server=server)
        node.start()
        nodes[node_id] = node
    return transport, nodes


def _stop_fleet(transport, nodes):
    for node in nodes.values():
        node.stop(timeout_s=5.0)
    transport.close()


class TestTcpRoundTrips:
    def test_request_and_batches_round_trip(self):
        portmap = PortMap.reserve([0, 1])
        fleet, nodes = _start_fleet(portmap, [0, 1])
        client = TcpTransport(portmap, default_timeout_s=5.0)
        try:
            pong = client.request(
                0, Message(kind=MessageKind.PING, sender=-1)
            )
            assert pong.payload["alive"] is True

            meta = FileMetadata("/tcp/a", inode=7, size=128)
            ack = client.request(
                1,
                Message(
                    kind=MessageKind.INSERT,
                    sender=-1,
                    payload={"meta": meta},
                ),
            )
            assert ack.payload["ok"] is True

            verify = client.request(
                1,
                Message(
                    kind=MessageKind.VERIFY,
                    sender=-1,
                    payload={"path": "/tcp/a"},
                ),
            )
            assert verify.payload["found"] is True
            assert verify.payload["home_id"] == 1

            batch = client.request(
                1,
                Message(
                    kind=MessageKind.VERIFY_BATCH,
                    sender=-1,
                    payload={"paths": ["/tcp/a", "/tcp/missing"]},
                ),
            )
            assert batch.payload["found"] == {
                "/tcp/a": True,
                "/tcp/missing": False,
            }
        finally:
            _stop_fleet(fleet, nodes)
            client.close()

    def test_trace_context_survives_the_wire(self):
        portmap = PortMap.reserve([0])
        fleet, nodes = _start_fleet(portmap, [0])
        client = TcpTransport(portmap, default_timeout_s=5.0)
        try:
            reply = client.request(
                0,
                Message(
                    kind=MessageKind.PING,
                    sender=-1,
                    trace=(12345, 67, 3),
                ),
            )
            assert reply.trace == (12345, 67, 3)
        finally:
            _stop_fleet(fleet, nodes)
            client.close()

    def test_mutate_batch_applies_then_dedups_on_retry(self):
        portmap = PortMap.reserve([0])
        fleet, nodes = _start_fleet(portmap, [0])
        client = TcpTransport(portmap, default_timeout_s=5.0)
        try:
            mutations = [
                {
                    "version": 1,
                    "op": "create",
                    "path": "/tcp/m",
                    "record": FileMetadata("/tcp/m", inode=1),
                },
            ]
            payload = {"origin": 9, "acked": 0, "mutations": mutations}
            first = client.request(
                0,
                Message(
                    kind=MessageKind.MUTATE_BATCH, sender=-1, payload=payload
                ),
            )
            (outcome,) = first.payload["outcomes"]
            assert outcome["applied"] is True
            assert outcome["deduped"] is False

            # A retransmit of the same (origin, version) must be served
            # from the outcome cache, exactly as in-process.
            second = client.request(
                0,
                Message(
                    kind=MessageKind.MUTATE_BATCH, sender=-1, payload=payload
                ),
            )
            (outcome,) = second.payload["outcomes"]
            assert outcome["deduped"] is True
        finally:
            _stop_fleet(fleet, nodes)
            client.close()


class TestTcpFaultBoundaryParity:
    def _exhaust(self, transport):
        """Drive one doomed request; return (exception, counters)."""
        with pytest.raises(TimeoutError) as excinfo:
            transport.request(
                0,
                Message(kind=MessageKind.PING, sender=-1),
                timeout_s=0.2,
            )
        # Request ids come from a process-global counter, so mask them
        # before comparing error texts across transports.
        error = re.sub(r"request \d+", "request N", str(excinfo.value))
        return error, {
            "messages_sent": transport.messages_sent,
            "replies_received": transport.replies_received,
            "retries": transport.retries,
            "exhausted": transport.exhausted,
        }

    def test_injected_drops_count_identically_to_in_process(self):
        """drop_rate=1.0: both transports burn the same attempts and
        raise the same timeout, because the injector wraps TCP sends at
        the same boundary as in-process sends."""
        retry = RetryPolicy(max_attempts=3, timeout_s=0.02)

        plan = FaultPlan(seed=5, drop_rate=1.0)
        inproc = InProcessTransport(
            default_timeout_s=0.2,
            injector=PlanFaultInjector(plan),
            retry=retry,
        )
        inproc.register(0)
        inproc_error, inproc_counters = self._exhaust(inproc)

        portmap = PortMap.reserve([0])
        fleet, nodes = _start_fleet(portmap, [0])
        tcp = TcpTransport(
            portmap,
            default_timeout_s=0.2,
            injector=PlanFaultInjector(FaultPlan(seed=5, drop_rate=1.0)),
            retry=retry,
        )
        try:
            tcp_error, tcp_counters = self._exhaust(tcp)
            assert tcp_error == inproc_error
            assert tcp_counters == inproc_counters
            assert tcp_counters["messages_sent"] == retry.max_attempts
            assert tcp_counters["exhausted"] == 1
        finally:
            _stop_fleet(fleet, nodes)
            tcp.close()


class TestTcpShutdownSemantics:
    def test_gather_marks_dead_peer_unreachable(self):
        # Node 7 is in the port map but nothing ever listens there:
        # connecting exhausts its attempts and the gather records the
        # peer as unreachable instead of raising.
        portmap = PortMap.reserve([0, 7])
        fleet, nodes = _start_fleet(portmap, [0])
        client = TcpTransport(
            portmap,
            default_timeout_s=2.0,
            connect_attempts=2,
            connect_backoff_s=0.01,
        )
        try:
            result = client.gather(
                [0, 7],
                lambda dest: Message(kind=MessageKind.PING, sender=-1),
            )
            assert sorted(result.replies) == [0]
            assert result.unreachable == (7,)
            assert result.missing == ()
            assert not result.complete
            assert len(result) == 1
            assert client.stats()["connect_retries"] >= 1
        finally:
            _stop_fleet(fleet, nodes)
            client.close()

    def test_unknown_destination_is_transport_closed(self):
        portmap = PortMap.reserve([0])
        client = TcpTransport(portmap, default_timeout_s=1.0)
        try:
            with pytest.raises(TransportClosed):
                client.send(
                    42, Message(kind=MessageKind.PING, sender=-1)
                )
        finally:
            client.close()

    def test_send_after_close_is_transport_closed(self):
        portmap = PortMap.reserve([0])
        client = TcpTransport(portmap, default_timeout_s=1.0)
        client.close()
        with pytest.raises(TransportClosed):
            client.send(0, Message(kind=MessageKind.PING, sender=-1))

    def test_crash_restart_resumes_from_checkpoint(self):
        """Kill a node thread, restore its server from a snapshot on a
        fresh transport, and observe identical metadata over the wire —
        the TCP analogue of the faults checkpoint drill."""
        config = _config()
        portmap = PortMap.reserve([0])
        fleet, nodes = _start_fleet(portmap, [0], config=config)
        client = TcpTransport(portmap, default_timeout_s=5.0)
        paths = [f"/tcp/ckpt/{i}" for i in range(8)]
        try:
            for i, path in enumerate(paths):
                client.request(
                    0,
                    Message(
                        kind=MessageKind.INSERT,
                        sender=-1,
                        payload={"meta": FileMetadata(path, inode=i + 1)},
                    ),
                )
            snapshot = snapshot_server(nodes[0].server)
            _stop_fleet(fleet, nodes)

            restored = restore_server(snapshot, config)
            portmap2 = PortMap.reserve([0])
            fleet2, nodes2 = _start_fleet(
                portmap2, [0], config=config, servers={0: restored}
            )
            client2 = TcpTransport(portmap2, default_timeout_s=5.0)
            try:
                batch = client2.request(
                    0,
                    Message(
                        kind=MessageKind.VERIFY_BATCH,
                        sender=-1,
                        payload={"paths": paths + ["/tcp/ckpt/ghost"]},
                    ),
                )
                found = batch.payload["found"]
                assert all(found[path] for path in paths)
                assert found["/tcp/ckpt/ghost"] is False
            finally:
                _stop_fleet(fleet2, nodes2)
                client2.close()
        finally:
            client.close()


class TestTcpWireStats:
    def test_stats_and_metrics_families(self):
        portmap = PortMap.reserve([0])
        fleet, nodes = _start_fleet(portmap, [0])
        registry = MetricsRegistry()
        client = TcpTransport(
            portmap, default_timeout_s=5.0, metrics=registry
        )
        try:
            for _ in range(3):
                client.request(
                    0, Message(kind=MessageKind.PING, sender=-1)
                )
            stats = client.stats()
            assert stats["frames_out"] == 3
            assert stats["frames_in"] == 3
            assert stats["bytes_out"] > 0
            assert stats["bytes_in"] > 0
            assert stats["connects"] == 1
            assert stats["queue_high_water"] >= 1

            bytes_total = registry.get("transport_bytes_total")
            assert bytes_total.get("out") == stats["bytes_out"]
            assert bytes_total.get("in") == stats["bytes_in"]
            frames_total = registry.get("transport_frames_total")
            assert frames_total.get("out") == 3

            report = transport_report(registry)
            assert report.startswith("-- transport counters --")
            assert "transport_bytes_total" in report
            assert "transport_queue_high_water" in report
        finally:
            _stop_fleet(fleet, nodes)
            client.close()


class TestTcpThreadingModel:
    def test_no_thread_before_the_first_register_or_connect(self):
        def transport_threads():
            return [
                thread.name
                for thread in threading.enumerate()
                if thread.name.startswith("tcp-transport")
            ]

        portmap = PortMap.reserve([0])
        fleet = TcpTransport(portmap, default_timeout_s=5.0)
        client = TcpTransport(portmap, default_timeout_s=5.0)
        assert transport_threads() == []
        node = MDSNode(0, _config(), fleet)
        node.start()
        try:
            assert transport_threads() == ["tcp-transport-accept-0"]
            client.request(0, Message(kind=MessageKind.PING, sender=-1))
            assert sorted(transport_threads()) == [
                "tcp-transport-accept-0",
                "tcp-transport-peer-0",
                "tcp-transport-serve-0",
            ]
            # A frame is a whole request or reply: Nagle is off on
            # accepted and dialled connections alike.
            for transport in (fleet, client):
                (conn,) = transport._connections
                assert conn.sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
        finally:
            _stop_fleet(fleet, {0: node})
            client.close()
        assert transport_threads() == []

    def test_many_callers_share_one_pooled_connection(self):
        """8 threads x 200 mixed request / one-way send to one node:
        every caller gets its own replies, the counters are exact once
        everything has settled, and frames never interleave (one decode
        failure would have dropped the connection and forced a second
        connect).  The first test to put two frames on one connection at
        once, so the first to see the stall counter move."""
        callers, rounds = 8, 200
        portmap = PortMap.reserve([0])
        fleet, nodes = _start_fleet(portmap, [0])
        client = TcpTransport(portmap, default_timeout_s=10.0)
        wrong = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def caller(index):
            for step in range(rounds):
                path = f"/shared/{index}/{step}"
                if step % 2:
                    client.send(
                        0,
                        Message(
                            kind=MessageKind.RECORD_LRU,
                            sender=-1,
                            payload={"path": path, "home_id": 0},
                        ),
                    )
                    continue
                reply = client.request(
                    0,
                    Message(
                        kind=MessageKind.VERIFY_BATCH,
                        sender=-1,
                        payload={"paths": [path]},
                    ),
                )
                if reply.payload["found"] != {path: False}:
                    wrong.append((path, reply.payload))

        threads = [
            threading.Thread(target=caller, args=(index,), daemon=True)
            for index in range(callers)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            # One more round trip: the mailbox is FIFO, so every one-way
            # send has been served once this is answered.
            client.request(0, Message(kind=MessageKind.PING, sender=-1))
        finally:
            sys.setswitchinterval(previous)
            _stop_fleet(fleet, nodes)
            client.close()
        assert wrong == []
        requests = callers * rounds // 2 + 1
        sends = callers * rounds // 2
        assert nodes[0].requests_served == requests + sends
        assert client.messages_sent == 2 * requests + sends
        assert client.replies_received == requests
        assert client.retries == 0
        stats = client.stats()
        assert stats["connects"] == 1
        assert stats["frames_out"] == requests + sends
        assert stats["frames_in"] == requests
        # The hosting transport also sent itself the STOP and its reply.
        served = fleet.stats()
        assert served["frames_in"] == requests + sends + 2
        assert served["frames_out"] == requests + 2
        assert stats["backpressure_stalls"] > 0
        assert stats["queue_high_water"] > 1
