"""Blocking-socket TCP transport speaking the ``repro.net.codec`` wire format.

One :class:`TcpTransport` per OS process.  It exposes the exact surface
of :class:`~repro.prototype.transport.InProcessTransport` — ``register``
(returns a plain ``queue.SimpleQueue`` mailbox, so :class:`~repro.prototype.
node.MDSNode` runs unmodified), ``send`` / ``request`` / ``gather``,
the same counters, the same fault-injector hook — which is what lets
``PrototypeCluster``, the gateway cohort, and the write-back flush
engine run on either transport.

Threading model
---------------
Whoever holds a frame writes it, as on the in-process transport: a
request is encoded and written by the calling thread, a reply by the
node thread (``message.reply_to`` is a shim whose ``put(reply)`` writes
to the connection the request came in on, so the node's handler loop
cannot tell the two transports apart).  A per-connection lock keeps
frames whole when several threads share the one pooled connection to a
peer.  Every connection — accepted, or pooled per peer — has one daemon
reader thread that decodes frames into the node's mailbox (server side)
or hands replies to waiting requests by ``request_id`` (client side) —
only to a request that was written on that same connection: a reply
from any other peer is dropped like a late duplicate, so a server
cannot answer another caller's request.  Each registered node adds one
accept thread.  All are named
``tcp-transport-*`` and none exists before the first ``register`` or
connect.  The two thread-to-thread hand-offs left per RPC (reader →
mailbox, reader → reply slot) are the node's contract, not the wire's;
both are ``queue.SimpleQueue`` objects, whose ``put`` and ``get`` run in C
without the condition-variable bookkeeping of ``queue.Queue``.  Frames
are encoded and decoded by :mod:`repro.net.codec`, which walks byte
offsets with no per-field cursor call; a reply that the codec refuses to
encode is answered with an error reply to the same request, so it fails
that one call instead of the node thread.

A write is bounded by ``default_timeout_s``: a peer that stops reading
costs the writer one timeout, then the connection is dropped (a torn
frame is never followed by another), the frame counts as lost on the
wire and the retry layer takes over.  Reads wait indefinitely — an idle
connection is not an error.  A dropped connection, whichever end dropped
it, wakes every request still waiting for a reply written on it, so the
retry layer re-sends at once instead of waiting out the attempt timeout.
Frames that found another frame ahead of them on their connection are
counted in ``transport_backpressure_stalls_total``, the deepest such line
in the ``transport_queue_high_water`` gauge.

Fault-boundary parity: ``send`` (count, then the fault injector's
verdict: drop → ``False`` but still counted, delay → virtual arrival
bump, duplicate → extra frames), the counters and the retry/backoff loop
are inherited from :class:`~repro.net.reliability.ReliableTransport`,
the core the in-process transport sits on too, so accounting and
recovery are identical by construction; this module adds the wire and
the life of a reply slot (``_deliver`` registers it with its connection,
the reader fills it, ``_drop`` wakes it, ``collect_reply`` forgets it).
A node not in the port map is refused before anything is counted, and
a peer that refuses connects past the bounded attempts after the send
was counted; both raise :class:`TransportClosed` — which ``gather``
reports as ``unreachable``, matching a deregistered in-process node.
"""

from __future__ import annotations

import json
import queue
import select
import socket
import struct
import threading
import time
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryPolicy
from repro.net.codec import (
    MAX_FRAME_BYTES,
    CodecError,
    decode_body,
    encode_body,
)
from repro.net.reliability import ReliableTransport, TransportClosed
from repro.prototype.messages import Message, MessageKind

__all__ = ["PortMap", "TcpTransport"]


class PortMap:
    """Static discovery: ``node_id -> (host, port)`` for every peer.

    The supervisor reserves ports up front (bind port 0, record what the
    kernel handed out) and ships the map to every child process, so
    there is no runtime discovery protocol to get wrong.
    """

    def __init__(self, endpoints: Dict[int, Tuple[str, int]]) -> None:
        self._endpoints = {
            int(node_id): (str(host), int(port))
            for node_id, (host, port) in endpoints.items()
        }

    @classmethod
    def reserve(
        cls, node_ids: Iterable[int], host: str = "127.0.0.1"
    ) -> "PortMap":
        """Reserve one OS-assigned port per node id.

        The sockets are closed again immediately — a tiny window exists
        in which another process could claim the port, which is fine for
        a test/bench harness on localhost.
        """
        endpoints: Dict[int, Tuple[str, int]] = {}
        probes: List[socket.socket] = []
        try:
            for node_id in node_ids:
                probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                probe.bind((host, 0))
                probes.append(probe)
                endpoints[int(node_id)] = (host, probe.getsockname()[1])
        finally:
            for probe in probes:
                probe.close()
        return cls(endpoints)

    def endpoint(self, node_id: int) -> Tuple[str, int]:
        try:
            return self._endpoints[node_id]
        except KeyError:
            raise TransportClosed(
                f"node {node_id} is not in the port map"
            ) from None

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._endpoints

    def __len__(self) -> int:
        return len(self._endpoints)

    def to_json(self) -> str:
        return json.dumps(
            {
                str(node_id): [host, port]
                for node_id, (host, port) in sorted(self._endpoints.items())
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, raw: str) -> "PortMap":
        return cls(json.loads(raw))


class _Connection:
    """One TCP connection: the socket, the lock that keeps frames whole
    on it, how many frames are at that lock, and the reader thread, which
    owns the socket's lifetime (``TcpTransport._drop`` ends it)."""

    __slots__ = ("sock", "write_lock", "waiting", "closed", "reader")

    def __init__(self, sock: socket.socket) -> None:
        # A frame is a whole request or reply: never wait to coalesce it.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.write_lock = threading.Lock()
        self.waiting = 0
        self.closed = False
        self.reader: Optional[threading.Thread] = None


class _ReplyShim:
    """Stands in for the in-process reply queue on the server side.

    The node's handler calls ``reply_to.put(reply)``; here the node
    thread encodes the reply and writes it to the connection the request
    arrived on (bounded like every write: a peer that reads slowly costs
    the node one timeout and its connection).  ``put`` never raises a
    :class:`CodecError` into the node's loop.
    """

    __slots__ = ("_transport", "_conn")

    def __init__(self, transport: "TcpTransport", conn: _Connection):
        self._transport = transport
        self._conn = conn

    def put(self, reply: Message) -> None:
        try:
            body = encode_body(reply, expects_reply=False)
        except CodecError as exc:
            # A reply the wire refuses (a non-str dict key, a frame over
            # MAX_FRAME_BYTES) becomes an error reply to the same
            # request: the client fails fast, the node thread lives on.
            error = Message(
                kind=MessageKind.REPLY,
                sender=reply.sender,
                payload={"error": f"CodecError: {exc}"},
                request_id=reply.request_id,
                trace=reply.trace,
            )
            body = encode_body(error, expects_reply=False)
        self._transport._write_frame(self._conn, body)


class TcpTransport(ReliableTransport):
    """TCP implementation of the prototype transport surface.

    Parameters are those of :class:`~repro.net.reliability.
    ReliableTransport` (``default_timeout_s`` also bounds every connect
    and every socket write), plus the port map and the bounded connect
    retries.
    """

    def __init__(
        self,
        portmap: PortMap,
        default_timeout_s: float = 30.0,
        injector: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        metrics=None,
        connect_attempts: int = 10,
        connect_backoff_s: float = 0.05,
    ) -> None:
        super().__init__(default_timeout_s, injector, retry, metrics)
        self.portmap = portmap
        self._connect_attempts = max(1, connect_attempts)
        self._connect_backoff_s = connect_backoff_s

        # Wire-level stats (TCP-only; the in-process transport has no wire).
        self._bytes = {"in": 0, "out": 0}
        self._frames = {"in": 0, "out": 0}
        self._connects = 0
        self._connect_retries = 0
        self._backpressure_stalls = 0
        self._queue_high_water = 0

        #: request_id -> (reply slot, the connection the request was
        #: written on): dropping that connection wakes the slot at once.
        self._pending: Dict[
            int, Tuple["queue.SimpleQueue[Optional[Message]]", "_Connection"]
        ] = {}
        self._listeners: Dict[int, Tuple[socket.socket, threading.Thread]] = {}
        self._pooled: Dict[int, _Connection] = {}
        self._connect_gates: Dict[int, threading.Lock] = {}
        # Every live connection, accepted ones included, so close() can
        # end and join each reader.
        self._connections: Set[_Connection] = set()
        self._closed = False

        self._m = {}
        if metrics is not None:
            self._m = {
                "bytes": metrics.counter(
                    "transport_bytes_total",
                    "Bytes moved on the wire, by direction.",
                    labels=("direction",),
                ),
                "frames": metrics.counter(
                    "transport_frames_total",
                    "Frames moved on the wire, by direction.",
                    labels=("direction",),
                ),
                "connects": metrics.counter(
                    "transport_connects_total",
                    "Client connections established.",
                ),
                "connect_retries": metrics.counter(
                    "transport_connect_retries_total",
                    "Failed connect attempts that were retried.",
                ),
                "stalls": metrics.counter(
                    "transport_backpressure_stalls_total",
                    "Frames that found another frame ahead of them on "
                    "their connection.",
                ),
                "high_water": metrics.gauge(
                    "transport_queue_high_water",
                    "Most frames waiting on one connection at once, the "
                    "one being written included.",
                ),
            }

    # ------------------------------------------------------------------
    # Wire stats (the message counters are the transport core's)
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Wire-level stats snapshot (monotonic since construction)."""
        with self._lock:
            return {
                "bytes_in": self._bytes["in"],
                "bytes_out": self._bytes["out"],
                "frames_in": self._frames["in"],
                "frames_out": self._frames["out"],
                "connects": self._connects,
                "connect_retries": self._connect_retries,
                "backpressure_stalls": self._backpressure_stalls,
                "queue_high_water": self._queue_high_water,
            }

    def _count_wire(self, direction: str, nbytes: int) -> None:
        """One frame of ``nbytes`` moved ``"in"`` or ``"out"``."""
        with self._lock:
            self._bytes[direction] += nbytes
            self._frames[direction] += 1
        if self._m:
            self._m["bytes"].labels(direction).inc(nbytes)
            self._m["frames"].labels(direction).inc()

    # ------------------------------------------------------------------
    # Connections: one reader thread each
    # ------------------------------------------------------------------
    def _adopt(
        self,
        sock: socket.socket,
        name: str,
        mailbox: Optional[queue.SimpleQueue],
    ) -> Optional[_Connection]:
        """Start the reader of a fresh connection; None (socket closed)
        when the transport was closed meanwhile."""
        conn = _Connection(sock)
        conn.reader = threading.Thread(
            target=self._read_loop,
            args=(conn, mailbox),
            name=f"tcp-transport-{name}",
            daemon=True,
        )
        with self._lock:
            if self._closed:
                sock.close()
                return None
            self._connections.add(conn)
        conn.reader.start()
        return conn

    def _read_loop(
        self, conn: _Connection, mailbox: Optional[queue.SimpleQueue]
    ) -> None:
        """Decode one connection's frames into ``mailbox`` (server side),
        or hand them to the requests waiting for them (``mailbox`` None:
        a pooled client connection) — until the connection is dropped."""
        try:
            with conn.sock.makefile("rb") as stream:
                while True:
                    frame = self._read_frame(stream)
                    if frame is None:
                        break
                    message, expects_reply = frame
                    if mailbox is not None:
                        if expects_reply:
                            message.reply_to = _ReplyShim(self, conn)
                        mailbox.put(message)
                        continue
                    with self._lock:
                        waiter = self._pending.get(message.request_id)
                    if waiter is not None and waiter[1] is conn:
                        waiter[0].put(message)
                    # else: a reply nobody waits for anymore (late duplicate
                    # after the retry budget), or one from a connection the
                    # request was not written on — dropped, like in-process.
        finally:
            self._drop(conn)  # fails a writer stalled on this connection
            with conn.write_lock:  # ... so none is mid-send on the fd
                conn.sock.close()
            with self._lock:
                self._connections.discard(conn)

    def _read_frame(self, stream) -> Optional[Tuple[Message, bool]]:
        """The next ``(message, expects_reply)`` off one connection; None
        once the connection is to be dropped — the peer closed or reset
        it, or sent an oversized (corrupt) or undecodable frame."""
        try:
            header = stream.read(4)
            if len(header) < 4:
                return None
            (length,) = struct.unpack(">I", header)
            if length > MAX_FRAME_BYTES:
                return None  # before a byte of it is allocated
            body = stream.read(length)
        except OSError:
            return None
        if len(body) < length:
            return None
        self._count_wire("in", 4 + length)
        try:
            return decode_body(body)
        except CodecError:
            return None

    def _drop(self, conn: _Connection) -> None:
        """End a connection: its reader sees end-of-stream and closes the
        socket, a write stalled on it fails at once, and every request
        written on it stops waiting (its slot gets None, which the retry
        layer takes for a lost reply and re-sends on a fresh connection)."""
        with self._lock:
            if conn.closed:
                return
            conn.closed = True
            for slot, written_on in self._pending.values():
                if written_on is conn:
                    slot.put(None)
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer reset it first

    def _write_frame(self, conn: _Connection, body: bytes) -> None:
        """Write one whole frame within ``default_timeout_s``, or drop the
        connection: the frame is then lost on the wire, which the retry
        layer recovers like any other loss."""
        frame = struct.pack(">I", len(body)) + body
        with self._lock:
            conn.waiting += 1
            stalled = conn.waiting > 1
            if stalled:
                self._backpressure_stalls += 1
            high = max(self._queue_high_water, conn.waiting)
            self._queue_high_water = high
        if self._m:
            if stalled:
                self._m["stalls"].inc()
            self._m["high_water"].labels().set(high)
        try:
            with conn.write_lock:
                sent = not conn.closed and self._send_all(conn.sock, frame)
        finally:
            with self._lock:
                conn.waiting -= 1
        if sent:
            self._count_wire("out", len(frame))
        else:
            self._drop(conn)

    def _send_all(self, sock: socket.socket, frame: bytes) -> bool:
        """``sendall`` with a deadline on the write alone (a socket
        timeout would also bound the reader's idle ``recv``)."""
        deadline = time.monotonic() + self._default_timeout
        view = memoryview(frame)
        try:
            while view:
                try:
                    view = view[sock.send(view, socket.MSG_DONTWAIT):]
                except BlockingIOError:  # the peer's window is full
                    writable = select.poll()
                    writable.register(sock, select.POLLOUT)
                    left_ms = (deadline - time.monotonic()) * 1000.0
                    if left_ms <= 0 or not writable.poll(left_ms):
                        return False
        except OSError:
            return False
        return True

    # ------------------------------------------------------------------
    # Registration (server side)
    # ------------------------------------------------------------------
    def register(self, node_id: int) -> "queue.SimpleQueue[Message]":
        mailbox = super().register(node_id)
        listener = socket.create_server(self.portmap.endpoint(node_id))
        acceptor = threading.Thread(
            target=self._accept_loop,
            args=(listener, node_id, mailbox),
            name=f"tcp-transport-accept-{node_id}",
            daemon=True,
        )
        self._listeners[node_id] = (listener, acceptor)
        acceptor.start()
        return mailbox

    def _accept_loop(
        self, listener: socket.socket, node_id: int, mailbox: queue.SimpleQueue
    ) -> None:
        with listener:
            while True:
                try:
                    sock, _ = listener.accept()
                except ConnectionAbortedError:
                    continue  # that peer gave up in the backlog
                except OSError:
                    break  # deregister() / close() shut the listener down
                self._adopt(sock, f"serve-{node_id}", mailbox)

    def deregister(self, node_id: int) -> None:
        super().deregister(node_id)
        listener, acceptor = self._listeners.pop(node_id, (None, None))
        if listener is not None:
            try:
                listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
            except OSError:
                pass
            acceptor.join(timeout=5.0)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.portmap

    # ------------------------------------------------------------------
    # Client connections
    # ------------------------------------------------------------------
    def _connection(self, dest: int) -> _Connection:
        """The pooled connection to ``dest``, dialled on first use and
        again after it was dropped."""
        conn = self._pooled.get(dest)
        if conn is not None and not conn.closed:
            return conn
        with self._lock:
            gate = self._connect_gates.setdefault(dest, threading.Lock())
        with gate:  # callers racing to one peer share one connection
            conn = self._pooled.get(dest)
            if conn is not None and not conn.closed:
                return conn
            conn = self._adopt(self._dial(dest), f"peer-{dest}", None)
            if conn is None:
                raise TransportClosed("transport is closed")
            self._pooled[dest] = conn
            return conn

    def _dial(self, dest: int) -> socket.socket:
        host, port = self.portmap.endpoint(dest)
        for attempt in range(self._connect_attempts):
            try:
                sock = socket.create_connection(
                    (host, port), timeout=self._default_timeout
                )
                break
            except OSError:
                with self._lock:
                    self._connect_retries += 1
                if self._m:
                    self._m["connect_retries"].inc()
                if attempt + 1 >= self._connect_attempts:
                    raise TransportClosed(
                        f"node {dest} unreachable at {host}:{port} after "
                        f"{self._connect_attempts} connect attempt(s)"
                    ) from None
                time.sleep(self._connect_backoff_s * (attempt + 1))
        sock.settimeout(None)  # the timeout was for the connect alone
        with self._lock:
            self._connects += 1
        if self._m:
            self._m["connects"].inc()
        return sock

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def _route(self, dest: int) -> int:
        if self._closed:
            raise TransportClosed("transport is closed")
        if dest not in self.portmap:
            raise TransportClosed(f"node {dest} is not in the port map")
        return dest

    def _deliver(self, route: int, message: Message, copies: int) -> None:
        """Encode once, write ``copies`` frames to the peer connection.
        A peer refusing connections beyond the bounded connect retries
        raises :class:`TransportClosed`."""
        expects_reply = message.reply_to is not None
        body = encode_body(message, expects_reply)
        conn = self._connection(route)
        if expects_reply:
            with self._lock:
                self._pending[message.request_id] = (message.reply_to, conn)
                if conn.closed:  # dropped before it could be woken
                    message.reply_to.put(None)
        for _ in range(copies):
            self._write_frame(conn, body)

    def collect_reply(self, message: Message, timeout_s: float):
        """Wait for the attempt's reply, then forget its ``_pending``
        entry.  Both retry loops collect every attempt that was delivered
        (``request`` each one, ``gather`` every delivered destination of
        each wave, and its last wave sends no retries), so each entry is
        removed by the collect of the attempt that registered it.  The one
        way to skip a collect is an exception that escapes ``gather``
        between dispatch and collect — a ``CodecError`` on a later
        destination's payload, say — which no caller under ``src/`` can
        raise: nothing there calls ``gather`` on a TCP transport, and the
        prototype's wire walk (``_WireWalk._gather``) builds one payload
        for every destination."""
        reply = super().collect_reply(message, timeout_s)
        with self._lock:
            self._pending.pop(message.request_id, None)
        return reply

    # Bound here, not inherited: the benchmark's span patcher wraps
    # ``vars(TcpTransport)["request"]``, so ``request`` must be defined
    # on this class.
    request = ReliableTransport.request

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop listening, end every connection, join every thread."""
        with self._lock:
            if self._closed:
                return
            self._closed = True  # from here _adopt refuses new connections
        for node_id in list(self._listeners):
            self.deregister(node_id)
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            self._drop(conn)
        for conn in connections:
            conn.reader.join(timeout=5.0)

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
