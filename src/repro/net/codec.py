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
the determinism suite and the fuzz tests pin (and
``tests/integration/data/wire_frames.json`` holds the bytes themselves).

Both directions are plain functions over offsets, with no cursor object
between them and the bytes.  The encoder appends to one ``bytearray``
through an exact-type dispatch table.  The decoder walks
``(data, pos, end)`` and returns ``(value, next_pos)``; every read is
preceded by an explicit ``pos``-vs-``end`` check, so truncated,
oversized, or garbage input raises the typed :class:`CodecError` (never
``IndexError``/``struct.error``, never an over-read past the frame,
never an unbounded allocation — element counts are validated against
the bytes actually remaining).  A varint below 0x80, the common case for
every length, count and small int, is one comparison and one append or
index either way; fixed-width fields go through ``struct.Struct``
objects built once.

Stdlib only; no reflection or pickling — every type that crosses the
wire is listed above, and anything else is a :class:`CodecError` at
*encode* time, so an unpicklable payload fails on the sender where the
bug is, not on the peer.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, Optional, Tuple

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
# ID 1 (the L1-only PROBE_LRU; PROBE_LOCAL answers L1 and L2) and ID 24
# (REPL_ACK, a standby status poll nothing sent) are retired, not free: a
# peer that still sends one gets a codec error, never another kind.
KIND_TO_WIRE = {
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
    MessageKind.REPL_SYNC: 25,
    MessageKind.REPL_PROMOTE: 26,
}
WIRE_TO_KIND = {wire_id: kind for kind, wire_id in KIND_TO_WIRE.items()}

_FILE_KINDS = (FileKind.REGULAR, FileKind.DIRECTORY, FileKind.SYMLINK)
_FILE_KIND_TO_WIRE = {kind: index for index, kind in enumerate(_FILE_KINDS)}


class CodecError(Exception):
    """Raised for any malformed frame: bad magic/version/tag, truncation,
    trailing bytes, oversize, or an unencodable payload value."""


#: Widest varint either side will accept: 10 septets = 70 bits, room for
#: any 64-bit quantity after zigzag.  The shared bound keeps encode and
#: decode symmetric — nothing the encoder emits is rejected by the peer.
_MAX_VARINT = (1 << 70) - 1
#: Shifts of a varint's 2nd..10th septet; the 10-septet cap turns a
#: corrupt continuation-bit run into CodecError, not an unbounded loop.
_SEPTET_SHIFTS = tuple(range(7, 70, 7))

_LENGTH = struct.Struct(">I")
#: magic, version, kind, flags
_HEADER = struct.Struct(">2sBBB")
_FLOAT = struct.Struct(">d")
_TIMES = struct.Struct(">ddd")


# ----------------------------------------------------------------------
# Encoding: append to one bytearray
# ----------------------------------------------------------------------
def _put_varint(value: int, out: bytearray) -> None:
    if 0 <= value < 0x80:
        out.append(value)
        return
    if value < 0:
        raise CodecError(f"varint must be non-negative, got {value}")
    if value > _MAX_VARINT:
        raise CodecError(f"varint {value} exceeds the 70-bit range")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _put_zigzag(value: int, out: bytearray) -> None:
    encoded = (value << 1) if value >= 0 else ((-value << 1) - 1)
    if encoded > _MAX_VARINT:
        raise CodecError(f"int {value} exceeds the 70-bit varint range")
    _put_varint(encoded, out)


def _put_str(value: str, out: bytearray) -> None:
    raw = value.encode("utf-8")
    if len(raw) < 0x80:
        out.append(len(raw))
    else:
        _put_varint(len(raw), out)
    out += raw


def _put_none(value: None, out: bytearray) -> None:
    out.append(_TAG_NONE)


def _put_bool(value: bool, out: bytearray) -> None:
    out.append(_TAG_TRUE if value else _TAG_FALSE)


def _put_int(value: int, out: bytearray) -> None:
    out.append(_TAG_INT)
    _put_zigzag(value, out)


def _put_float(value: float, out: bytearray) -> None:
    out.append(_TAG_FLOAT)
    out += _FLOAT.pack(value)


def _put_text(value: str, out: bytearray) -> None:
    out.append(_TAG_STR)
    _put_str(value, out)


def _put_bytes(value: bytes, out: bytearray) -> None:
    out.append(_TAG_BYTES)
    _put_varint(len(value), out)
    out += value


def _put_list(value: list, out: bytearray) -> None:
    out.append(_TAG_LIST)
    _put_varint(len(value), out)
    for item in value:
        (_ENCODERS.get(type(item)) or _encoder_for(item))(item, out)


def _put_dict(value: dict, out: bytearray) -> None:
    out.append(_TAG_DICT)
    _put_varint(len(value), out)
    try:
        keys = sorted(value)
    except TypeError:  # keys of mixed types do not even order
        keys = list(value)
    for key in keys:
        if not isinstance(key, str):
            raise CodecError(
                f"dict keys must be str, got {type(key).__name__}"
            )
        _put_str(key, out)
        item = value[key]
        (_ENCODERS.get(type(item)) or _encoder_for(item))(item, out)


def _put_metadata(value: FileMetadata, out: bytearray) -> None:
    out.append(_TAG_METADATA)
    _put_str(value.path, out)
    _put_varint(value.inode, out)
    out.append(_FILE_KIND_TO_WIRE[value.kind])
    _put_varint(value.size, out)
    _put_zigzag(value.uid, out)
    _put_zigzag(value.gid, out)
    _put_varint(value.mode, out)
    out += _TIMES.pack(value.atime, value.mtime, value.ctime)
    _put_varint(value.nlink, out)
    _put_str(value.symlink_target, out)


def _put_bloom(value: BloomFilter, out: bytearray) -> None:
    raw = value.to_bytes()
    out.append(_TAG_BLOOM)
    _put_varint(len(raw), out)
    out += raw


_Encoder = Callable[[Any, bytearray], None]

#: Exact type -> encoder: one dict lookup per value on the common path.
#: The order is the ``isinstance`` order a subclass is matched in.
_ENCODERS: Dict[type, _Encoder] = {
    type(None): _put_none,
    bool: _put_bool,
    int: _put_int,
    float: _put_float,
    str: _put_text,
    bytes: _put_bytes,
    bytearray: _put_bytes,
    list: _put_list,
    tuple: _put_list,
    dict: _put_dict,
    FileMetadata: _put_metadata,
    BloomFilter: _put_bloom,
}


def _encoder_for(value: Any) -> _Encoder:
    """The encoder of a value whose exact type is not in ``_ENCODERS``:
    a subclass of a wire type is written as its base."""
    for base, encoder in _ENCODERS.items():
        if isinstance(value, base):
            return encoder
    raise CodecError(
        f"cannot encode payload value of type {type(value).__name__}"
    )


def _encode_message(
    message: Message, expects_reply: bool, out: bytearray
) -> None:
    """Append ``message``'s frame body to ``out``."""
    start = len(out)
    wire_kind = KIND_TO_WIRE.get(message.kind)
    if wire_kind is None:
        raise CodecError(f"unregistered MessageKind {message.kind!r}")
    trace = message.trace
    flags = FLAG_EXPECTS_REPLY if expects_reply else 0
    if trace is not None:
        flags |= FLAG_HAS_TRACE
    out += _HEADER.pack(WIRE_MAGIC, WIRE_VERSION, wire_kind, flags)
    _put_zigzag(message.sender, out)
    _put_varint(message.request_id, out)
    out += _FLOAT.pack(message.arrival_vtime)
    if trace is not None:
        trace_id, parent_span_id, origin = trace
        _put_zigzag(trace_id, out)
        _put_zigzag(parent_span_id, out)
        _put_zigzag(origin, out)
    if not isinstance(message.payload, dict):
        raise CodecError("frame payload must be a dict")
    try:
        _put_dict(message.payload, out)
    except UnicodeEncodeError as exc:  # a lone surrogate in a str
        raise CodecError(f"unencodable string in payload: {exc}") from None
    except RecursionError:  # a payload that contains itself
        raise CodecError("payload nested too deeply") from None
    if len(out) - start > MAX_FRAME_BYTES:
        raise CodecError(
            f"frame body {len(out) - start} bytes exceeds MAX_FRAME_BYTES"
        )


# ----------------------------------------------------------------------
# Decoding: (data, pos, end) -> (value, next pos)
# ----------------------------------------------------------------------
def _truncated(need: int, pos: int, end: int) -> CodecError:
    return CodecError(
        f"truncated frame: need {need} byte(s), {end - pos} remaining"
    )


def _varint(data: bytes, pos: int, end: int) -> Tuple[int, int]:
    if pos >= end:
        raise _truncated(1, pos, end)
    byte = data[pos]
    if byte < 0x80:
        return byte, pos + 1
    if pos + 1 < end and data[pos + 1] < 0x80:  # two bytes: up to 16383
        return (byte & 0x7F) | (data[pos + 1] << 7), pos + 2
    result = byte & 0x7F
    for shift in _SEPTET_SHIFTS:
        pos += 1
        if pos >= end:
            raise _truncated(1, pos, end)
        byte = data[pos]
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos + 1
    raise CodecError("varint longer than 10 bytes")


def _zigzag(data: bytes, pos: int, end: int) -> Tuple[int, int]:
    if pos < end and data[pos] < 0x80:
        encoded = data[pos]
        pos += 1
    else:
        encoded, pos = _varint(data, pos, end)
    return (encoded >> 1) ^ -(encoded & 1), pos


def _raw(data: bytes, pos: int, end: int) -> Tuple[bytes, int]:
    """A varint length and that many bytes."""
    size, pos = _varint(data, pos, end)
    if pos + size > end:
        raise _truncated(size, pos, end)
    return data[pos : pos + size], pos + size


def _str(data: bytes, pos: int, end: int) -> Tuple[str, int]:
    if pos < end and data[pos] < 0x80:  # a one-byte length, inline
        stop = pos + 1 + data[pos]
        pos += 1
    else:
        size, pos = _varint(data, pos, end)
        stop = pos + size
    if stop > end:
        raise _truncated(stop - pos, pos, end)
    try:
        return data[pos:stop].decode("utf-8"), stop
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid UTF-8 in string: {exc}") from None


def _float(data: bytes, pos: int, end: int) -> Tuple[float, int]:
    if pos + 8 > end:
        raise _truncated(8, pos, end)
    return _FLOAT.unpack_from(data, pos)[0], pos + 8


def _list(data: bytes, pos: int, end: int) -> Tuple[list, int]:
    count, pos = _varint(data, pos, end)
    # Every element costs >= 1 byte, so a count beyond the bytes left is
    # corrupt — reject before allocating the list.
    if count > end - pos:
        raise CodecError(
            f"list claims {count} elements with only {end - pos} byte(s) left"
        )
    items = []
    for _ in range(count):
        item, pos = _value(data, pos, end)
        items.append(item)
    return items, pos


def _dict(data: bytes, pos: int, end: int) -> Tuple[dict, int]:
    count, pos = _varint(data, pos, end)
    if count > end - pos:
        raise CodecError(
            f"dict claims {count} entries with only {end - pos} byte(s) left"
        )
    result = {}
    for _ in range(count):
        key, pos = _str(data, pos, end)
        result[key], pos = _value(data, pos, end)
    return result, pos


def _metadata(data: bytes, pos: int, end: int) -> Tuple[FileMetadata, int]:
    path, pos = _str(data, pos, end)
    inode, pos = _varint(data, pos, end)
    if pos >= end:
        raise _truncated(1, pos, end)
    kind_id = data[pos]
    if kind_id >= len(_FILE_KINDS):
        raise CodecError(f"unknown FileKind wire id {kind_id}")
    size, pos = _varint(data, pos + 1, end)
    uid, pos = _zigzag(data, pos, end)
    gid, pos = _zigzag(data, pos, end)
    mode, pos = _varint(data, pos, end)
    if pos + _TIMES.size > end:
        raise _truncated(_TIMES.size, pos, end)
    atime, mtime, ctime = _TIMES.unpack_from(data, pos)
    nlink, pos = _varint(data, pos + _TIMES.size, end)
    symlink_target, pos = _str(data, pos, end)
    try:  # the fields in declaration order, through the validating init
        meta = FileMetadata(
            path, inode, _FILE_KINDS[kind_id], size, uid, gid, mode,
            atime, mtime, ctime, nlink, symlink_target,
        )
    except ValueError as exc:
        raise CodecError(f"invalid FileMetadata on wire: {exc}") from None
    return meta, pos


def _bloom(data: bytes, pos: int, end: int) -> Tuple[BloomFilter, int]:
    raw, pos = _raw(data, pos, end)
    if len(raw) < 28:
        raise CodecError("BloomFilter blob shorter than its header")
    # BloomFilter.from_bytes builds the filter's hash family, which
    # sizes its mask memo with a num_bits-wide int, before it validates
    # the payload length, so a corrupt header claiming 2^60 bits would
    # be a giant allocation.  Check the claimed geometry against the
    # bytes actually present first.
    num_bits = int.from_bytes(raw[0:8], "big")
    if len(raw) != 28 + (num_bits + 7) // 8:
        raise CodecError(
            f"BloomFilter blob length {len(raw)} inconsistent with "
            f"claimed {num_bits} bits"
        )
    try:
        return BloomFilter.from_bytes(raw), pos
    except (ValueError, OverflowError) as exc:
        raise CodecError(f"invalid BloomFilter on wire: {exc}") from None


_Decoder = Callable[[bytes, int, int], Tuple[Any, int]]

_CONSTANTS = (None, False, True)  # tags 0x00 - 0x02
#: Indexed by tag: the decoder of what follows it (None: a constant).
_DECODERS: Tuple[Optional[_Decoder], ...] = (
    None,
    None,
    None,
    _zigzag,
    _float,
    _str,
    _raw,
    _list,
    _dict,
    _metadata,
    _bloom,
)


def _value(data: bytes, pos: int, end: int) -> Tuple[Any, int]:
    if pos >= end:
        raise _truncated(1, pos, end)
    tag = data[pos]
    if tag <= _TAG_TRUE:
        return _CONSTANTS[tag], pos + 1
    if tag <= _TAG_BLOOM:
        return _DECODERS[tag](data, pos + 1, end)
    raise CodecError(f"unknown value tag 0x{tag:02x}")


def _decode_message(data: bytes, pos: int, end: int) -> Tuple[Message, bool]:
    """The one message in ``data[pos:end]``, which it must fill exactly."""
    if pos + _HEADER.size > end:
        raise _truncated(_HEADER.size, pos, end)
    magic, version, wire_kind, flags = _HEADER.unpack_from(data, pos)
    if magic != WIRE_MAGIC:
        raise CodecError("bad magic: not a repro.net frame")
    if version != WIRE_VERSION:
        raise CodecError(f"unsupported wire version {version}")
    kind = WIRE_TO_KIND.get(wire_kind)
    if kind is None:
        raise CodecError("unknown MessageKind wire id")
    if flags & ~(FLAG_EXPECTS_REPLY | FLAG_HAS_TRACE):
        raise CodecError(f"unknown flag bits 0x{flags:02x}")
    sender, pos = _zigzag(data, pos + _HEADER.size, end)
    request_id, pos = _varint(data, pos, end)
    arrival_vtime, pos = _float(data, pos, end)
    trace: Optional[Tuple[int, int, int]] = None
    if flags & FLAG_HAS_TRACE:
        trace_id, pos = _zigzag(data, pos, end)
        parent_span_id, pos = _zigzag(data, pos, end)
        origin, pos = _zigzag(data, pos, end)
        trace = (trace_id, parent_span_id, origin)
    if pos >= end or data[pos] != _TAG_DICT:
        raise CodecError("frame payload must be a dict")
    try:
        payload, pos = _dict(data, pos + 1, end)
    except RecursionError:  # ~2 bytes per level suffice to nest that deep
        raise CodecError("payload nested too deeply") from None
    if pos != end:
        raise CodecError(f"{end - pos} trailing byte(s) after frame")
    message = Message(
        kind=kind,
        sender=sender,
        payload=payload,
        request_id=request_id,
        arrival_vtime=arrival_vtime,
        trace=trace,
    )
    return message, bool(flags & FLAG_EXPECTS_REPLY)


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def encode_body(message: Message, expects_reply: bool) -> bytes:
    """Encode one message into a frame body (no length prefix)."""
    out = bytearray()
    _encode_message(message, expects_reply, out)
    return bytes(out)


def decode_body(body: bytes) -> Tuple[Message, bool]:
    """Decode one frame body into ``(message, expects_reply)``."""
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(
            f"frame body {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _decode_message(body, 0, len(body))


def encode_frame(message: Message, expects_reply: bool = False) -> bytes:
    """Encode one message into a length-prefixed frame."""
    out = bytearray(_LENGTH.size)
    _encode_message(message, expects_reply, out)
    _LENGTH.pack_into(out, 0, len(out) - _LENGTH.size)
    return bytes(out)


def decode_frame(data: bytes) -> Tuple[Message, bool]:
    """Decode one complete length-prefixed frame.

    The frame must be exactly one message — missing or trailing bytes
    raise :class:`CodecError` (stream readers should split on the length
    prefix first and hand whole bodies to :func:`decode_body`).
    """
    if len(data) < _LENGTH.size:
        raise CodecError("truncated frame: missing length prefix")
    (length,) = _LENGTH.unpack_from(data, 0)
    if length > MAX_FRAME_BYTES:
        raise CodecError(
            f"frame length {length} exceeds MAX_FRAME_BYTES"
        )
    if len(data) - _LENGTH.size != length:
        raise CodecError(
            f"frame length prefix says {length} byte(s), "
            f"got {len(data) - _LENGTH.size}"
        )
    return _decode_message(data, _LENGTH.size, len(data))
