"""Deterministic binary wire format for the prototype's ``Message``.

Frame layout (everything big-endian)::

    +--------------------+-------------------------------------------+
    | 4 bytes            | body length N (excludes these 4 bytes)    |
    | N bytes            | body                                      |
    +--------------------+-------------------------------------------+

    body := magic "RN" | version u8 | kind u8 | flags u8
          | sender zigzag-varint | request_id varint
          | arrival_vtime f64
          | [trace: 3 x zigzag-varint]        (iff flags bit 1)
          | payload value                      (always a dict)

``flags`` bit 0 marks a message that expects a reply (the in-process
transport expresses this with an attached ``reply_to`` queue, which
cannot cross a process boundary — the bit replaces it on the wire);
bit 1 marks the presence of the PR 6 trace context
``(trace_id, parent_span_id, origin)``.

Values are tagged:

====  =======================================================
tag   encoding
====  =======================================================
0x00  None
0x01  False
0x02  True
0x03  int — zigzag LEB128 varint (up to 70 bits after zigzag)
0x04  float — IEEE-754 binary64
0x05  str — varint byte length + UTF-8
0x06  bytes — varint length + raw
0x07  list/tuple — varint count + elements (tuples decode as lists)
0x08  dict — varint count + sorted (str key, value) pairs
0x09  FileMetadata — 12 fields in declaration order
0x0A  BloomFilter — varint length + ``BloomFilter.to_bytes()``
====  =======================================================

Dict keys must be strings and are written sorted, so
``encode(decode(encode(m))) == encode(m)`` bit-for-bit — the property
the determinism suite and the fuzz tests pin.  The decoder is strictly
bounds-checked: truncated, oversized, or garbage input raises the typed
:class:`CodecError` (never ``IndexError``/``struct.error``, never an
over-read past the frame, never an unbounded allocation — element
counts are validated against the bytes actually remaining).

Stdlib only; no reflection or pickling — every type that crosses the
wire is listed above, and anything else is a :class:`CodecError` at
*encode* time, so an unpicklable payload fails on the sender where the
bug is, not on the peer.
"""

from __future__ import annotations

import struct
from typing import Any, Optional, Tuple

from repro.bloom.bloom_filter import BloomFilter
from repro.metadata.attributes import FileKind, FileMetadata
from repro.prototype.messages import Message, MessageKind

WIRE_MAGIC = b"RN"
WIRE_VERSION = 1
#: Hard ceiling on one frame body; a length prefix beyond this is rejected
#: before any allocation, so a corrupt prefix cannot balloon memory.
MAX_FRAME_BYTES = 16 * 1024 * 1024

FLAG_EXPECTS_REPLY = 0x01
FLAG_HAS_TRACE = 0x02

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_LIST = 0x07
_TAG_DICT = 0x08
_TAG_METADATA = 0x09
_TAG_BLOOM = 0x0A

# Wire IDs are assigned explicitly (not enum order at runtime) so that
# reordering the enum in a refactor cannot silently change the protocol.
KIND_TO_WIRE = {
    MessageKind.PROBE_LRU: 1,
    MessageKind.PROBE_LOCAL: 2,
    MessageKind.PROBE_SEGMENT: 3,
    MessageKind.VERIFY: 4,
    MessageKind.VERIFY_BATCH: 5,
    MessageKind.MUTATE_BATCH: 6,
    MessageKind.INSERT: 7,
    MessageKind.HOST_REPLICA: 8,
    MessageKind.DROP_REPLICA: 9,
    MessageKind.REPLACE_REPLICA: 10,
    MessageKind.PUBLISH: 11,
    MessageKind.COPY_REPLICA_TO: 12,
    MessageKind.SEND_LOCAL_TO: 13,
    MessageKind.EXCHANGE_REPLICA: 14,
    MessageKind.RECORD_LRU: 15,
    MessageKind.PING: 16,
    MessageKind.STOP: 17,
    MessageKind.REPLY: 18,
    MessageKind.INVALIDATE: 19,
    MessageKind.COHORT_HEARTBEAT: 20,
    MessageKind.COHORT_SYNC: 21,
    MessageKind.COHORT_SYNC_REPLY: 22,
    MessageKind.REPL_SHIP: 23,
    MessageKind.REPL_ACK: 24,
    MessageKind.REPL_SYNC: 25,
    MessageKind.REPL_PROMOTE: 26,
}
WIRE_TO_KIND = {wire_id: kind for kind, wire_id in KIND_TO_WIRE.items()}

_FILE_KINDS = (FileKind.REGULAR, FileKind.DIRECTORY, FileKind.SYMLINK)
_FILE_KIND_TO_WIRE = {kind: index for index, kind in enumerate(_FILE_KINDS)}


class CodecError(Exception):
    """Raised for any malformed frame: bad magic/version/tag, truncation,
    trailing bytes, oversize, or an unencodable payload value."""


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
def _encode_varint(value: int) -> bytes:
    if value < 0:
        raise CodecError(f"varint must be non-negative, got {value}")
    if value > _MAX_VARINT:
        raise CodecError(f"varint {value} exceeds the 70-bit range")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


#: Widest varint either side will accept: 10 septets = 70 bits, room for
#: any 64-bit quantity after zigzag.  The shared bound keeps encode and
#: decode symmetric — nothing the encoder emits is rejected by the peer.
_MAX_VARINT = (1 << 70) - 1


def _encode_zigzag(value: int) -> bytes:
    encoded = (value << 1) if value >= 0 else ((-value << 1) - 1)
    if encoded > _MAX_VARINT:
        raise CodecError(f"int {value} exceeds the 70-bit varint range")
    return _encode_varint(encoded)


def _decode_zigzag(encoded: int) -> int:
    return (encoded >> 1) if not (encoded & 1) else -((encoded + 1) >> 1)


class _Reader:
    """Bounds-checked cursor over one frame body."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def take(self, count: int) -> bytes:
        if count < 0 or count > self.remaining:
            raise CodecError(
                f"truncated frame: need {count} byte(s), "
                f"{self.remaining} remaining"
            )
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def byte(self) -> int:
        return self.take(1)[0]

    def varint(self) -> int:
        result = 0
        shift = 0
        # 10 septets cover 70 bits — beyond any length this codec emits;
        # the cap turns a corrupt continuation-bit run into CodecError
        # instead of an unbounded loop.
        for _ in range(10):
            byte = self.byte()
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
        raise CodecError("varint longer than 10 bytes")

    def zigzag(self) -> int:
        return _decode_zigzag(self.varint())

    def float64(self) -> float:
        return struct.unpack(">d", self.take(8))[0]

    def expect_end(self) -> None:
        if self.remaining:
            raise CodecError(f"{self.remaining} trailing byte(s) after frame")


# ----------------------------------------------------------------------
# Values
# ----------------------------------------------------------------------
def _encode_value(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        out += _encode_zigzag(value)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out += struct.pack(">d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        out += _encode_varint(len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out.append(_TAG_BYTES)
        out += _encode_varint(len(value))
        out += bytes(value)
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        out += _encode_varint(len(value))
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, dict):
        out.append(_TAG_DICT)
        out += _encode_varint(len(value))
        for key in sorted(value):
            if not isinstance(key, str):
                raise CodecError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
            raw = key.encode("utf-8")
            out += _encode_varint(len(raw))
            out += raw
            _encode_value(value[key], out)
    elif isinstance(value, FileMetadata):
        out.append(_TAG_METADATA)
        raw = value.path.encode("utf-8")
        out += _encode_varint(len(raw))
        out += raw
        out += _encode_varint(value.inode)
        out.append(_FILE_KIND_TO_WIRE[value.kind])
        out += _encode_varint(value.size)
        out += _encode_zigzag(value.uid)
        out += _encode_zigzag(value.gid)
        out += _encode_varint(value.mode)
        out += struct.pack(">ddd", value.atime, value.mtime, value.ctime)
        out += _encode_varint(value.nlink)
        raw = value.symlink_target.encode("utf-8")
        out += _encode_varint(len(raw))
        out += raw
    elif isinstance(value, BloomFilter):
        raw = value.to_bytes()
        out.append(_TAG_BLOOM)
        out += _encode_varint(len(raw))
        out += raw
    else:
        raise CodecError(
            f"cannot encode payload value of type {type(value).__name__}"
        )


def _decode_str(reader: _Reader) -> str:
    length = reader.varint()
    try:
        return reader.take(length).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid UTF-8 in string: {exc}") from None


def _decode_value(reader: _Reader) -> Any:
    tag = reader.byte()
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_INT:
        return reader.zigzag()
    if tag == _TAG_FLOAT:
        return reader.float64()
    if tag == _TAG_STR:
        return _decode_str(reader)
    if tag == _TAG_BYTES:
        return reader.take(reader.varint())
    if tag == _TAG_LIST:
        count = reader.varint()
        # Every element costs >= 1 byte, so a count beyond the bytes
        # left is corrupt — reject before allocating the list.
        if count > reader.remaining:
            raise CodecError(
                f"list claims {count} elements with only "
                f"{reader.remaining} byte(s) left"
            )
        return [_decode_value(reader) for _ in range(count)]
    if tag == _TAG_DICT:
        count = reader.varint()
        if count > reader.remaining:
            raise CodecError(
                f"dict claims {count} entries with only "
                f"{reader.remaining} byte(s) left"
            )
        result = {}
        for _ in range(count):
            key = _decode_str(reader)
            result[key] = _decode_value(reader)
        return result
    if tag == _TAG_METADATA:
        path = _decode_str(reader)
        inode = reader.varint()
        kind_id = reader.byte()
        if kind_id >= len(_FILE_KINDS):
            raise CodecError(f"unknown FileKind wire id {kind_id}")
        kind = _FILE_KINDS[kind_id]
        size = reader.varint()
        uid = reader.zigzag()
        gid = reader.zigzag()
        mode = reader.varint()
        atime, mtime, ctime = struct.unpack(">ddd", reader.take(24))
        nlink = reader.varint()
        symlink_target = _decode_str(reader)
        try:
            return FileMetadata(
                path=path,
                inode=inode,
                kind=kind,
                size=size,
                uid=uid,
                gid=gid,
                mode=mode,
                atime=atime,
                mtime=mtime,
                ctime=ctime,
                nlink=nlink,
                symlink_target=symlink_target,
            )
        except ValueError as exc:
            raise CodecError(f"invalid FileMetadata on wire: {exc}") from None
    if tag == _TAG_BLOOM:
        raw = reader.take(reader.varint())
        if len(raw) < 28:
            raise CodecError("BloomFilter blob shorter than its header")
        # BloomFilter.from_bytes builds the filter's hash family, which
        # sizes its mask memo with a num_bits-wide int, before it
        # validates the payload length, so a corrupt header claiming
        # 2^60 bits would be a giant allocation.  Check the claimed
        # geometry against the bytes actually present first.
        num_bits = int.from_bytes(raw[0:8], "big")
        if len(raw) != 28 + (num_bits + 7) // 8:
            raise CodecError(
                f"BloomFilter blob length {len(raw)} inconsistent with "
                f"claimed {num_bits} bits"
            )
        try:
            return BloomFilter.from_bytes(raw)
        except (ValueError, OverflowError) as exc:
            raise CodecError(f"invalid BloomFilter on wire: {exc}") from None
    raise CodecError(f"unknown value tag 0x{tag:02x}")


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def encode_body(message: Message, expects_reply: bool) -> bytes:
    """Encode one message into a frame body (no length prefix)."""
    wire_kind = KIND_TO_WIRE.get(message.kind)
    if wire_kind is None:
        raise CodecError(f"unregistered MessageKind {message.kind!r}")
    flags = 0
    if expects_reply:
        flags |= FLAG_EXPECTS_REPLY
    if message.trace is not None:
        flags |= FLAG_HAS_TRACE
    out = bytearray(WIRE_MAGIC)
    out.append(WIRE_VERSION)
    out.append(wire_kind)
    out.append(flags)
    out += _encode_zigzag(message.sender)
    out += _encode_varint(message.request_id)
    out += struct.pack(">d", message.arrival_vtime)
    if message.trace is not None:
        trace_id, parent_span_id, origin = message.trace
        out += _encode_zigzag(trace_id)
        out += _encode_zigzag(parent_span_id)
        out += _encode_zigzag(origin)
    _encode_value(message.payload, out)
    if len(out) > MAX_FRAME_BYTES:
        raise CodecError(
            f"frame body {len(out)} bytes exceeds MAX_FRAME_BYTES"
        )
    return bytes(out)


def decode_body(body: bytes) -> Tuple[Message, bool]:
    """Decode one frame body into ``(message, expects_reply)``."""
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(
            f"frame body {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    reader = _Reader(body)
    if reader.take(2) != WIRE_MAGIC:
        raise CodecError("bad magic: not a repro.net frame")
    version = reader.byte()
    if version != WIRE_VERSION:
        raise CodecError(f"unsupported wire version {version}")
    kind = WIRE_TO_KIND.get(reader.byte())
    if kind is None:
        raise CodecError("unknown MessageKind wire id")
    flags = reader.byte()
    if flags & ~(FLAG_EXPECTS_REPLY | FLAG_HAS_TRACE):
        raise CodecError(f"unknown flag bits 0x{flags:02x}")
    sender = reader.zigzag()
    request_id = reader.varint()
    arrival_vtime = reader.float64()
    trace: Optional[Tuple[int, int, int]] = None
    if flags & FLAG_HAS_TRACE:
        trace = (reader.zigzag(), reader.zigzag(), reader.zigzag())
    payload = _decode_value(reader)
    if not isinstance(payload, dict):
        raise CodecError("frame payload must be a dict")
    reader.expect_end()
    message = Message(
        kind=kind,
        sender=sender,
        payload=payload,
        request_id=request_id,
        arrival_vtime=arrival_vtime,
        trace=trace,
    )
    return message, bool(flags & FLAG_EXPECTS_REPLY)


def encode_frame(message: Message, expects_reply: bool = False) -> bytes:
    """Encode one message into a length-prefixed frame."""
    body = encode_body(message, expects_reply)
    return struct.pack(">I", len(body)) + body


def decode_frame(data: bytes) -> Tuple[Message, bool]:
    """Decode one complete length-prefixed frame.

    The frame must be exactly one message — missing or trailing bytes
    raise :class:`CodecError` (stream readers should split on the length
    prefix first and hand whole bodies to :func:`decode_body`).
    """
    if len(data) < 4:
        raise CodecError("truncated frame: missing length prefix")
    (length,) = struct.unpack(">I", data[:4])
    if length > MAX_FRAME_BYTES:
        raise CodecError(
            f"frame length {length} exceeds MAX_FRAME_BYTES"
        )
    if len(data) - 4 != length:
        raise CodecError(
            f"frame length prefix says {length} byte(s), "
            f"got {len(data) - 4}"
        )
    return decode_body(data[4:])
