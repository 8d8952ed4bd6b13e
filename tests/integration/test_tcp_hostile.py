"""Hostile peers at the transport, not just at the codec.

A live :class:`~repro.prototype.node.MDSNode` behind a
:class:`~repro.net.tcp.TcpTransport` is driven through raw sockets that
break the protocol in every way a peer can: garbage behind a valid
length, an oversized length prefix, a frame cut short by FIN, a
connection that never speaks, a reset while the reply is on its way, a
reader that never reads, a peer that is simply gone, and a server that
answers with another caller's ``request_id``.  Each case
asserts, in bounded time, that the offending connection is dropped,
that nothing of it reached the node's mailbox, that the listener still
accepts, that a well-behaved client talking to the same node meanwhile
is unaffected — and, when the transports are closed, that no
``tcp-transport*`` thread is left alive.
"""

import queue
import socket
import struct
import threading
import time

import pytest

from repro.core.config import GHBAConfig
from repro.faults.injector import FaultPlan, PlanFaultInjector
from repro.faults.retry import RetryPolicy
from repro.net.codec import MAX_FRAME_BYTES, decode_frame, encode_frame
from repro.net.reliability import TransportClosed
from repro.net.tcp import PortMap, TcpTransport
from repro.prototype.messages import Message, MessageKind
from repro.prototype.node import MDSNode

BOUND_S = 5.0  # every wait below is bounded by this


def _transport_threads():
    return sorted(
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("tcp-transport")
    )


def _ping():
    return Message(kind=MessageKind.PING, sender=-1)


class _Fleet:
    """One node behind one transport, one well-behaved client beside it."""

    def __init__(self, write_timeout_s=BOUND_S, config=None):
        self.portmap = PortMap.reserve([0])
        self.transport = TcpTransport(
            self.portmap, default_timeout_s=write_timeout_s
        )
        self.node = MDSNode(
            0,
            config or GHBAConfig(expected_files_per_mds=512, lru_capacity=64),
            self.transport,
        )
        self.node.start()
        self.client = TcpTransport(self.portmap, default_timeout_s=BOUND_S)
        self.pings = 0

    def ping(self):
        """The well-behaved client's round trip, on its pooled connection."""
        reply = self.client.request(0, _ping())
        assert reply.payload["alive"] is True
        self.pings += 1

    def raw(self, rcvbuf=None):
        """A raw socket to the node (``rcvbuf`` keeps what a peer that
        never reads can absorb small)."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        sock.settimeout(BOUND_S)
        sock.connect(self.portmap.endpoint(0))
        return sock

    def assert_dropped(self, sock):
        """The server ended ``sock``: end-of-stream or a reset, in time."""
        try:
            assert sock.recv(1) == b""
        except ConnectionError:
            pass

    def assert_unharmed(self):
        """The listener accepts and serves a new connection, the
        well-behaved client still has the connection it started with,
        and the node served exactly the well-behaved requests."""
        with self.raw() as sock:
            sock.sendall(encode_frame(_ping(), expects_reply=True))
            (length,) = struct.unpack(">I", _recv_exactly(sock, 4))
            reply, _ = decode_frame(
                struct.pack(">I", length) + _recv_exactly(sock, length)
            )
            assert reply.payload["alive"] is True
        self.pings += 1
        self.ping()
        assert self.client.stats()["connects"] == 1
        assert self.client.retries == 0
        assert self.node.is_alive()
        # The mailbox is FIFO: by the time the ping above was answered,
        # anything a hostile connection put in before it was served too.
        assert self.node.requests_served == self.pings

    def close(self):
        self.node.stop(timeout_s=BOUND_S)
        self.client.close()
        self.transport.close()
        assert _transport_threads() == []


class _RawPeer:
    """A raw-socket server at one port-map endpoint, one connection at a
    time: it queues each request it reads on ``requests`` and writes back
    the messages ``answer(request)`` returns (none: it stays silent)."""

    def __init__(self, endpoint, answer=lambda request: ()):
        self.requests = queue.SimpleQueue()
        self._answer = answer
        self._listener = socket.create_server(endpoint)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        with self._listener:
            while True:
                try:
                    sock, _ = self._listener.accept()
                except OSError:
                    return  # close() shut the listener down
                with sock, sock.makefile("rb") as stream:
                    try:
                        self._serve_one(sock, stream)
                    except OSError:
                        pass  # the client reset the connection

    def _serve_one(self, sock, stream):
        while True:
            header = stream.read(4)
            if len(header) < 4:
                return  # the client hung up
            (length,) = struct.unpack(">I", header)
            request, _ = decode_frame(header + stream.read(length))
            self.requests.put(request)
            for reply in self._answer(request):
                sock.sendall(encode_frame(reply, expects_reply=False))

    def close(self):
        """Stop accepting (close the clients first: a connection being
        served ends when its client hangs up)."""
        self._listener.shutdown(socket.SHUT_RDWR)
        self._thread.join(BOUND_S)


def _recv_exactly(sock, count):
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        assert chunk, "connection closed mid-frame"
        data += chunk
    return data


@pytest.fixture
def fleet():
    fleet = _Fleet()
    fleet.ping()
    try:
        yield fleet
    finally:
        fleet.close()


class TestBrokenFrames:
    def test_garbage_body_behind_a_valid_length(self, fleet):
        with fleet.raw() as sock:
            sock.sendall(struct.pack(">I", 64) + b"\xa5" * 64)
            fleet.assert_dropped(sock)
        fleet.assert_unharmed()

    def test_oversized_length_is_dropped_on_the_prefix(self, fleet):
        with fleet.raw() as sock:
            # Only the four prefix bytes are ever sent: a reader that
            # waited for (or allocated) the body would not drop here.
            sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            fleet.assert_dropped(sock)
        assert fleet.transport.stats()["bytes_in"] < MAX_FRAME_BYTES
        fleet.assert_unharmed()

    def test_truncated_frame_then_fin(self, fleet):
        frame = encode_frame(_ping(), expects_reply=True)
        with fleet.raw() as sock:
            sock.sendall(frame[: len(frame) - 3])
            sock.shutdown(socket.SHUT_WR)
            fleet.assert_dropped(sock)
        fleet.assert_unharmed()

    def test_a_frame_cut_inside_its_length_prefix(self, fleet):
        with fleet.raw() as sock:
            sock.sendall(b"\x00\x00")
            sock.shutdown(socket.SHUT_WR)
            fleet.assert_dropped(sock)
        fleet.assert_unharmed()


class TestSilentAndVanishingPeers:
    def test_connect_and_idle_is_not_an_error(self, fleet):
        with fleet.raw() as idle:
            fleet.assert_unharmed()
            # Still open: idleness is not a protocol violation ...
            idle.settimeout(0.2)
            with pytest.raises(socket.timeout):
                idle.recv(1)
            # ... and it does not keep close() from finishing.
            fleet.node.stop(timeout_s=BOUND_S)
            started = time.monotonic()
            fleet.transport.close()
            assert time.monotonic() - started < BOUND_S
            idle.settimeout(BOUND_S)
            fleet.assert_dropped(idle)

    def test_reset_while_the_reply_is_being_written(self):
        fleet = _Fleet(config=GHBAConfig())  # ~20 KB PUBLISH replies
        try:
            sock = fleet.raw(rcvbuf=4096)
            publish = Message(kind=MessageKind.PUBLISH, sender=-1)
            for _ in range(64):  # ~1.3 MB of replies into a 4 KB window
                sock.sendall(encode_frame(publish, expects_reply=True))
            fleet.pings += 64  # served, whatever became of the replies
            time.sleep(0.2)  # let the node start writing
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()  # linger 0: RST, not FIN
            fleet.assert_unharmed()
        finally:
            fleet.close()

    def test_a_peer_that_is_gone_is_transport_closed(self):
        portmap = PortMap.reserve([0, 1])
        here = TcpTransport(portmap, default_timeout_s=BOUND_S)
        there = TcpTransport(portmap, default_timeout_s=BOUND_S)
        nodes = [
            MDSNode(0, GHBAConfig(), here),
            MDSNode(1, GHBAConfig(), there),
        ]
        for node in nodes:
            node.start()
        # A short attempt timeout: a request written in the instant
        # before the client's reader sees the peer's FIN is lost like any
        # frame, and costs one timeout before the re-dial is refused.
        client = TcpTransport(
            portmap,
            default_timeout_s=0.5,
            connect_attempts=3,
            connect_backoff_s=0.01,
        )
        try:
            assert len(client.gather([0, 1], lambda dest: _ping())) == 2
            # Node 1's whole process goes: listener and connections.
            nodes[1].stop(timeout_s=BOUND_S)
            there.close()
            started = time.monotonic()
            with pytest.raises(TransportClosed, match="3 connect attempt"):
                client.request(1, _ping())
            result = client.gather([0, 1], lambda dest: _ping())
            assert time.monotonic() - started < BOUND_S
            assert sorted(result.replies) == [0]
            assert result.unreachable == (1,)
            stats = client.stats()
            assert stats["connects"] == 2  # the survivor kept its connection
            assert stats["connect_retries"] == 6
        finally:
            nodes[0].stop(timeout_s=BOUND_S)
            client.close()
            here.close()
            there.close()
            assert _transport_threads() == []


class TestHangUp:
    ATTEMPT_TIMEOUT_S = 3.0

    def test_a_peer_that_hangs_up_on_each_request_fails_fast(self):
        """A peer that reads each request and closes the connection:
        every waiter is woken by the drop, not by its attempt timeout,
        and the retry budget runs out in well under one timeout."""
        portmap = PortMap.reserve([0])
        listener = socket.create_server(portmap.endpoint(0))
        accepted = []

        def hang_up_after_each_request():
            with listener:
                while True:
                    try:
                        sock, _ = listener.accept()
                    except OSError:
                        return  # the test shut the listener down
                    accepted.append(sock)
                    with sock:
                        sock.settimeout(BOUND_S)
                        (length,) = struct.unpack(">I", _recv_exactly(sock, 4))
                        _recv_exactly(sock, length)

        peer = threading.Thread(target=hang_up_after_each_request, daemon=True)
        peer.start()
        client = TcpTransport(portmap, default_timeout_s=self.ATTEMPT_TIMEOUT_S)
        try:
            started = time.monotonic()
            with pytest.raises(TimeoutError, match="after 3 attempt"):
                client.request(0, _ping())
            assert time.monotonic() - started < 1.0
            assert client.retries == 2
            assert client.exhausted == 1
            assert client.stats()["connects"] == 3  # one dial per attempt
            assert len(accepted) == 3
        finally:
            client.close()
            listener.shutdown(socket.SHUT_RDWR)
            peer.join(BOUND_S)
        assert _transport_threads() == []


class TestSlowReader:
    #: ~40 MB of unread ~20 KB replies: past the kernel's socket buffers
    #: and past a thousand-frame user-space queue in front of them.
    REQUESTS = 2_000
    WRITE_TIMEOUT_S = 0.5

    def test_a_peer_that_never_reads_costs_one_write_timeout(self):
        """A client that asks for large replies and never reads them
        must not wedge the node thread: its write is bounded, its
        connection is dropped, everybody else is served."""
        fleet = _Fleet(
            write_timeout_s=self.WRITE_TIMEOUT_S, config=GHBAConfig()
        )
        try:
            sock = fleet.raw(rcvbuf=4096)
            publish = encode_frame(
                Message(kind=MessageKind.PUBLISH, sender=-1),
                expects_reply=True,
            )
            sock.sendall(publish * self.REQUESTS)
            fleet.pings += self.REQUESTS

            # The well-behaved ping queues behind all of that.  Watchdog:
            # on an unbounded write this never returns.
            done = threading.Event()

            def well_behaved():
                fleet.ping()
                done.set()

            threading.Thread(target=well_behaved, daemon=True).start()
            assert done.wait(BOUND_S), "node thread wedged by a slow reader"
            assert fleet.client.retries == 0
            # The slow reader lost its connection (whatever it still has
            # buffered, the stream ends in bounded time) ...
            sock.settimeout(BOUND_S)
            try:
                while sock.recv(1 << 20):
                    pass
            except ConnectionError:
                pass
            sock.close()
            # ... and the frame that stalled was never counted as sent.
            assert fleet.transport.stats()["frames_out"] < self.REQUESTS
            fleet.assert_unharmed()
        finally:
            fleet.close()


class TestUnencodableReplies:
    """A reply the codec refuses must not take the node thread with it:
    the client gets a typed error for that request, before its timeout,
    and the node goes on serving."""

    def _assert_error_reply_then_served(self, fleet, request, reason):
        started = time.monotonic()
        reply = fleet.client.request(0, request)
        assert time.monotonic() - started < BOUND_S
        assert fleet.client.retries == 0
        assert reply.request_id == request.request_id
        assert reply.payload["error"].startswith("CodecError: ")
        assert reason in reply.payload["error"]
        fleet.pings += 1
        assert fleet.node.is_alive()
        follow_up = fleet.client.request(0, _verify_batch(["/a", "/b"]))
        assert follow_up.payload["found"] == {"/a": False, "/b": False}
        fleet.pings += 1
        fleet.assert_unharmed()

    def test_a_non_str_dict_key_in_the_reply(self, fleet):
        # The node answers found={7: False}: a dict key the wire refuses.
        self._assert_error_reply_then_served(
            fleet, _verify_batch([7]), "keys must be str"
        )

    def test_a_reply_over_the_frame_cap(self, fleet, monkeypatch):
        # The request fits under the (lowered) cap; the reply, which adds
        # its finish time to the same paths, does not.
        paths = [f"/big/{index:04d}" for index in range(60)]
        request = _verify_batch(paths)
        body = len(encode_frame(request, expects_reply=True)) - 4
        monkeypatch.setattr("repro.net.codec.MAX_FRAME_BYTES", body + 8)
        self._assert_error_reply_then_served(
            fleet, request, "exceeds MAX_FRAME_BYTES"
        )


def _verify_batch(paths):
    return Message(
        kind=MessageKind.VERIFY_BATCH, sender=-1, payload={"paths": paths}
    )


class TestForgedReplies:
    def test_a_reply_from_a_peer_that_was_not_asked_is_dropped(self):
        """Node 1 answers the client's request to it, but first writes a
        reply carrying the request id of the client's request to node 0,
        which stays silent.  That request was not written on node 1's
        connection, so the forged reply must not answer it."""
        portmap = PortMap.reserve([0, 1])
        asked = _ping()

        def forge_then_answer(request):
            forged = Message(
                kind=MessageKind.REPLY,
                sender=1,
                payload={"forged": True},
                request_id=asked.request_id,
            )
            return forged, request.reply(alive=True)

        silent = _RawPeer(portmap.endpoint(0))
        forger = _RawPeer(portmap.endpoint(1), forge_then_answer)
        client = TcpTransport(
            portmap, default_timeout_s=2.0, retry=RetryPolicy(max_attempts=1)
        )
        outcome = []

        def ask_node_0():
            try:
                outcome.append(client.request(0, asked))
            except TimeoutError as exc:
                outcome.append(exc)

        waiter = threading.Thread(target=ask_node_0, daemon=True)
        waiter.start()
        try:
            heard = silent.requests.get(timeout=BOUND_S)
            assert heard.request_id == asked.request_id
            reply = client.request(1, _ping())
            assert reply.payload == {"alive": True}
            waiter.join(BOUND_S)
            assert len(outcome) == 1
            assert isinstance(outcome[0], TimeoutError), outcome[0]
            assert client._pending == {}
        finally:
            client.close()
            silent.close()
            forger.close()
        assert _transport_threads() == []


class TestReplySlots:
    def test_no_reply_slot_outlives_its_attempt(self):
        """Every ``_pending`` entry is forgotten by the collect of the
        attempt that registered it: answered, timed out, dropped or
        duplicated by the fault layer, or silent inside a gather."""
        portmap = PortMap.reserve([0, 1])
        server = TcpTransport(portmap, default_timeout_s=BOUND_S)
        node = MDSNode(0, GHBAConfig(expected_files_per_mds=512), server)
        node.start()
        silent = _RawPeer(portmap.endpoint(1))
        retry = RetryPolicy(max_attempts=2, timeout_s=0.01)
        client = TcpTransport(portmap, default_timeout_s=BOUND_S, retry=retry)
        injector = PlanFaultInjector(
            FaultPlan(seed=3, drop_rate=0.3, duplicate_rate=0.3)
        )
        faulty = TcpTransport(
            portmap, default_timeout_s=BOUND_S, injector=injector, retry=retry
        )
        try:
            assert client.request(0, _ping()).payload["alive"] is True
            assert client._pending == {}

            with pytest.raises(TimeoutError, match="after 2 attempt"):
                client.request(1, _ping(), timeout_s=0.1)
            assert client._pending == {}

            for _ in range(20):
                try:
                    faulty.request(0, _ping())
                except TimeoutError:
                    pass  # both attempts dropped
                assert faulty._pending == {}
            assert injector.counts["drop_request"] > 0
            assert injector.counts["duplicate"] > 0

            result = client.gather([0, 1], lambda dest: _ping(), timeout_s=0.5)
            assert sorted(result.replies) == [0]
            assert result.missing == (1,)
            assert client._pending == {}
        finally:
            node.stop(timeout_s=BOUND_S)
            client.close()
            faulty.close()
            server.close()
            silent.close()
        assert _transport_threads() == []
