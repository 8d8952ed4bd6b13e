"""Asyncio TCP transport speaking the ``repro.net.codec`` wire format.

One :class:`TcpTransport` per OS process.  It exposes the exact surface
of :class:`~repro.prototype.transport.InProcessTransport` — ``register``
(returns a plain ``queue.Queue`` mailbox, so :class:`~repro.prototype.
node.MDSNode` runs unmodified), ``send`` / ``request`` / ``gather``,
the same counters, the same fault-injector hook — which is what lets
``PrototypeCluster``, the gateway cohort, and the write-back flush
engine run on either transport.

Architecture
------------
A single daemon thread runs an asyncio event loop; caller threads talk
to it through ``run_coroutine_threadsafe``.  Per peer there is one
pooled client connection carrying all requests, with:

- a **bounded outbound queue** (``outbound_queue_limit`` frames): when
  it is full the *caller thread blocks* until the writer drains — that
  is real backpressure, surfaced in ``transport_backpressure_stalls_total``
  and the ``transport_queue_high_water`` gauge rather than hidden in an
  unbounded buffer;
- a writer task (write + drain, counting bytes/frames out);
- a reader task demultiplexing REPLY frames to waiting requests by
  ``request_id``.

The server side (``register``) accepts connections, decodes frames into
the node's mailbox, and arms ``message.reply_to`` with a shim whose
``put(reply)`` encodes the reply back onto the originating connection —
the node's handler loop cannot tell the two transports apart.

Fault-boundary parity: ``send`` (count, then the fault injector's
verdict: drop → ``False`` but still counted, delay → virtual arrival
bump, duplicate → extra frames), the counters and the retry/backoff loop
are inherited from :class:`~repro.net.reliability.ReliableTransport`,
the core the in-process transport sits on too, so accounting and
recovery are identical by construction; this module adds the wire.  A
peer that cannot be reached (connect refused after bounded attempts, or
not in the port map) raises :class:`TransportClosed` — which ``gather``
reports as ``unreachable``, matching a deregistered in-process node.
"""

from __future__ import annotations

import asyncio
import json
import queue
import socket
import struct
import threading
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryPolicy
from repro.net.codec import (
    MAX_FRAME_BYTES,
    CodecError,
    decode_body,
    encode_body,
)
from repro.net.reliability import (
    GatherResult,
    ReliableTransport,
    TransportClosed,
)
from repro.prototype.messages import Message

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

    def node_ids(self) -> List[int]:
        return sorted(self._endpoints)

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


class _ReplyShim:
    """Stands in for the in-process reply queue on the server side.

    The node's handler calls ``reply_to.put(reply)``; here that encodes
    the reply and enqueues it on the originating connection's bounded
    outbound queue (blocking the node thread when the peer reads slowly
    — reply backpressure, same accounting as the client side).
    """

    __slots__ = ("_transport", "_outbound")

    def __init__(self, transport: "TcpTransport", outbound: "_Outbound"):
        self._transport = transport
        self._outbound = outbound

    def put(self, reply: Message) -> None:
        body = encode_body(reply, expects_reply=False)
        self._transport._enqueue_threadsafe(self._outbound, body)


class _Outbound:
    """One bounded outbound frame queue + writer task for a connection."""

    __slots__ = ("queue", "task", "closed")

    def __init__(
        self,
        transport: "TcpTransport",
        writer: asyncio.StreamWriter,
        limit: int,
    ) -> None:
        self.queue: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue(
            maxsize=limit
        )
        self.closed = False
        self.task = asyncio.get_running_loop().create_task(
            self._drain(transport, writer)
        )

    async def _drain(
        self, transport: "TcpTransport", writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                body = await self.queue.get()
                if body is None:
                    break
                frame = struct.pack(">I", len(body)) + body
                writer.write(frame)
                await writer.drain()
                transport._count_wire("out", len(frame))
        except (ConnectionError, OSError):
            pass
        finally:
            self.closed = True
            try:
                writer.close()
            except Exception:
                pass


class _PeerConnection:
    """One pooled client connection to a peer node."""

    __slots__ = ("outbound", "reader_task", "closed")

    def __init__(self) -> None:
        self.outbound: Optional[_Outbound] = None
        self.reader_task: Optional[asyncio.Task] = None
        self.closed = False


class TcpTransport(ReliableTransport):
    """TCP implementation of the prototype transport surface.

    Parameters are those of :class:`~repro.net.reliability.
    ReliableTransport`, plus the port map and the TCP-specific
    connection knobs.
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
        outbound_queue_limit: int = 1024,
    ) -> None:
        super().__init__(default_timeout_s, injector, retry, metrics)
        self.portmap = portmap
        self._connect_attempts = max(1, connect_attempts)
        self._connect_backoff_s = connect_backoff_s
        self._outbound_queue_limit = outbound_queue_limit

        # Wire-level stats (TCP-only; the in-process transport has no wire).
        self._bytes = {"in": 0, "out": 0}
        self._frames = {"in": 0, "out": 0}
        self._connects = 0
        self._connect_retries = 0
        self._backpressure_stalls = 0
        self._queue_high_water = 0

        self._pending: Dict[int, "queue.Queue[Message]"] = {}
        self._servers: Dict[int, asyncio.AbstractServer] = {}
        self._conns: Dict[int, _PeerConnection] = {}
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
                    "Sends that blocked on a full outbound queue.",
                ),
                "high_water": metrics.gauge(
                    "transport_queue_high_water",
                    "Maximum outbound queue depth observed (frames).",
                ),
            }

        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="tcp-transport", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Event loop plumbing
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def _call(self, coro):
        """Run a coroutine on the loop from a caller thread."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

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

    def _note_queue_depth(self, depth: int) -> None:
        with self._lock:
            if depth > self._queue_high_water:
                self._queue_high_water = depth
            high = self._queue_high_water
        if self._m:
            self._m["high_water"].labels().set(high)

    # ------------------------------------------------------------------
    # Registration (server side)
    # ------------------------------------------------------------------
    def register(self, node_id: int) -> "queue.Queue[Message]":
        mailbox = super().register(node_id)
        host, port = self.portmap.endpoint(node_id)
        server = self._call(self._start_server(node_id, host, port))
        self._servers[node_id] = server
        return mailbox

    async def _start_server(
        self, node_id: int, host: str, port: int
    ) -> asyncio.AbstractServer:
        mailbox = self._mailboxes[node_id]

        async def handle(reader, writer):
            outbound = _Outbound(self, writer, self._outbound_queue_limit)
            try:
                await self._pump_inbound(reader, mailbox, outbound)
            except asyncio.CancelledError:
                pass  # transport shutdown; end the task uncancelled
            finally:
                if not outbound.closed:
                    try:
                        outbound.queue.put_nowait(None)
                    except asyncio.QueueFull:
                        outbound.task.cancel()

        return await asyncio.start_server(handle, host, port)

    async def _read_frame(self, reader) -> Optional[Tuple[Message, bool]]:
        """The next ``(message, expects_reply)`` off one connection; None
        once the connection is to be dropped — the peer closed or reset
        it, or sent an oversized (corrupt) or undecodable frame."""
        try:
            header = await reader.readexactly(4)
            (length,) = struct.unpack(">I", header)
            if length > MAX_FRAME_BYTES:
                return None
            body = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        self._count_wire("in", 4 + length)
        try:
            return decode_body(body)
        except CodecError:
            return None

    async def _pump_inbound(self, reader, mailbox, outbound) -> None:
        """Decode inbound frames from one connection into the mailbox."""
        while True:
            frame = await self._read_frame(reader)
            if frame is None:
                break
            message, expects_reply = frame
            if expects_reply:
                message.reply_to = _ReplyShim(self, outbound)
            mailbox.put(message)

    def deregister(self, node_id: int) -> None:
        super().deregister(node_id)
        server = self._servers.pop(node_id, None)
        if server is not None:
            self._call(self._close_server(server))

    @staticmethod
    async def _close_server(server: asyncio.AbstractServer) -> None:
        server.close()
        await server.wait_closed()

    def node_ids(self) -> List[int]:
        return self.portmap.node_ids()

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.portmap

    # ------------------------------------------------------------------
    # Client connections
    # ------------------------------------------------------------------
    async def _get_connection(self, dest: int) -> _PeerConnection:
        conn = self._conns.get(dest)
        if conn is not None and not conn.closed and not conn.outbound.closed:
            return conn
        host, port = self.portmap.endpoint(dest)
        reader = writer = None
        for attempt in range(self._connect_attempts):
            try:
                reader, writer = await asyncio.open_connection(host, port)
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
                await asyncio.sleep(self._connect_backoff_s * (attempt + 1))
        with self._lock:
            self._connects += 1
        if self._m:
            self._m["connects"].inc()
        conn = _PeerConnection()
        conn.outbound = _Outbound(self, writer, self._outbound_queue_limit)
        conn.reader_task = self._loop.create_task(
            self._client_reader(dest, conn, reader)
        )
        self._conns[dest] = conn
        return conn

    async def _client_reader(
        self, dest: int, conn: _PeerConnection, reader: asyncio.StreamReader
    ) -> None:
        """Demultiplex reply frames from one peer to waiting requests."""
        try:
            while True:
                frame = await self._read_frame(reader)
                if frame is None:
                    break
                message, _ = frame
                with self._lock:
                    waiter = self._pending.get(message.request_id)
                if waiter is not None:
                    waiter.put(message)
                # else: a reply nobody waits for anymore (late duplicate
                # after the retry budget) — dropped, like in-process.
        finally:
            conn.closed = True
            if conn.outbound is not None and not conn.outbound.closed:
                await conn.outbound.queue.put(None)

    async def _put_frame(self, outbound: _Outbound, body: bytes) -> None:
        """Queue one frame for the writer; a full queue is a counted stall."""
        if outbound.queue.full():
            with self._lock:
                self._backpressure_stalls += 1
            if self._m:
                self._m["stalls"].inc()
        await outbound.queue.put(body)
        self._note_queue_depth(outbound.queue.qsize())

    async def _enqueue_frames(self, dest: int, bodies: List[bytes]) -> None:
        conn = await self._get_connection(dest)
        for body in bodies:
            await self._put_frame(conn.outbound, body)

    def _enqueue_threadsafe(self, outbound: _Outbound, body: bytes) -> None:
        """Reply path: enqueue one frame on an inbound connection."""

        async def put() -> None:
            if not outbound.closed:  # else the reply has nowhere to go
                await self._put_frame(outbound, body)

        self._call(put())

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def _route(self, dest: int) -> int:
        if self._closed:
            raise TransportClosed("transport is closed")
        return dest

    def _deliver(self, route: int, message: Message, copies: int) -> None:
        """Encode once, hand ``copies`` frames to the peer connection.
        A peer absent from the port map, or refusing connections beyond
        the bounded connect retries, raises :class:`TransportClosed`."""
        expects_reply = message.reply_to is not None
        if expects_reply:
            with self._lock:
                self._pending[message.request_id] = message.reply_to
        body = encode_body(message, expects_reply)
        self._call(self._enqueue_frames(route, [body] * copies))

    def request(
        self,
        dest: int,
        message: Message,
        timeout_s: Optional[float] = None,
        count: bool = True,
    ) -> Message:
        try:
            return super().request(dest, message, timeout_s, count)
        finally:
            with self._lock:
                self._pending.pop(message.request_id, None)

    def gather(
        self,
        dests: Iterable[int],
        build_message: Callable[[int], Message],
        timeout_s: Optional[float] = None,
    ) -> GatherResult:
        issued: List[int] = []

        def build(dest: int) -> Message:
            message = build_message(dest)
            issued.append(message.request_id)
            return message

        try:
            return super().gather(dests, build, timeout_s)
        finally:
            with self._lock:
                for request_id in issued:
                    self._pending.pop(request_id, None)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down servers, connections, and the event loop."""
        if self._closed:
            return
        self._closed = True
        try:
            self._call(self._shutdown())
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        if not self._loop.is_running():
            self._loop.close()

    async def _shutdown(self) -> None:
        for server in self._servers.values():
            server.close()
        for server in self._servers.values():
            try:
                await server.wait_closed()
            except Exception:
                pass
        self._servers.clear()
        for conn in self._conns.values():
            if conn.outbound is not None and not conn.outbound.closed:
                await conn.outbound.queue.put(None)
            if conn.reader_task is not None:
                conn.reader_task.cancel()
        self._conns.clear()
        # Server-side connection handlers (and their drain tasks) are
        # still parked on reads; cancel them inside the live loop so the
        # loop closes without "Task was destroyed but it is pending".
        tasks = [
            task
            for task in asyncio.all_tasks()
            if task is not asyncio.current_task()
        ]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
