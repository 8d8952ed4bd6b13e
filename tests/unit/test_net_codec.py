"""Wire codec: bit-identical round trips and a strict error taxonomy.

Every malformed input must surface as the typed ``CodecError`` — never a
hang, an ``IndexError``/``struct.error``, or an over-read — and every
``MessageKind`` (with and without trace context) must round-trip with a
bit-identical re-encode, which is what lets the TCP transport claim the
same determinism story as the in-process one.
"""

import struct

import pytest

from repro.bloom.bloom_filter import BloomFilter
from repro.metadata.attributes import FileKind, FileMetadata
from repro.net.codec import (
    KIND_TO_WIRE,
    MAX_FRAME_BYTES,
    WIRE_MAGIC,
    WIRE_VERSION,
    CodecError,
    decode_body,
    decode_frame,
    encode_body,
    encode_frame,
)
from repro.prototype.messages import Message, MessageKind


def _roundtrip(message, expects_reply=False):
    frame = encode_frame(message, expects_reply)
    decoded, decoded_expects = decode_frame(frame)
    # Bit-identical re-encode is the determinism contract.
    assert encode_frame(decoded, decoded_expects) == frame
    assert decoded_expects is expects_reply
    return decoded


def _sample_payload(kind):
    """A representative payload per kind, covering every value type."""
    meta = FileMetadata(path="/data/a.txt", inode=42, size=1024, mtime=3.5)
    bloom = BloomFilter(num_bits=256, num_hashes=3, seed=7)
    bloom.add("/data/a.txt")
    samples = {
        MessageKind.PROBE_LOCAL: {"path": "/data/a.txt"},
        MessageKind.PROBE_SEGMENT: {"path": "/data/a.txt"},
        MessageKind.VERIFY: {"path": "/data/a.txt"},
        MessageKind.VERIFY_BATCH: {"paths": ["/a", "/b", "/c"]},
        MessageKind.MUTATE_BATCH: {
            "origin": 3,
            "acked": 17,
            "mutations": [
                {"version": 18, "op": "create", "path": "/a", "record": meta},
                {"version": 19, "op": "delete", "path": "/b", "record": None},
            ],
        },
        MessageKind.INSERT: {"meta": meta},
        MessageKind.HOST_REPLICA: {"home_id": 2, "replica": bloom},
        MessageKind.DROP_REPLICA: {"home_id": 2},
        MessageKind.REPLACE_REPLICA: {"home_id": 2, "replica": bloom},
        MessageKind.PUBLISH: {},
        MessageKind.COPY_REPLICA_TO: {"home_id": 1, "dest": 4},
        MessageKind.SEND_LOCAL_TO: {"dest": 4},
        MessageKind.EXCHANGE_REPLICA: {"home_id": 0, "replica": bloom},
        MessageKind.RECORD_LRU: {"path": "/a", "home_id": 5},
        MessageKind.PING: {},
        MessageKind.STOP: {},
        MessageKind.REPLY: {
            "found": {"/a": True, "/b": False},
            "finish_vtime": 12.25,
            "home_id": None,
        },
        MessageKind.INVALIDATE: {
            "records": [["/a", 3, 1, 0.5, "delete"]],
        },
        MessageKind.COHORT_HEARTBEAT: {"seq": 9, "acks": {"0": 4, "2": 7}},
        MessageKind.COHORT_SYNC: {"since": 4},
        MessageKind.COHORT_SYNC_REPLY: {"records": [], "base": 4},
        MessageKind.REPL_SHIP: {
            "home": 1,
            "epoch": 2,
            "acked": 6,
            "entries": [
                {"seq": 7, "op": "create", "path": "/a", "new_path": "",
                 "record": meta, "vtime": 0.5},
                {"seq": 8, "op": "rename", "path": "/a", "new_path": "/b",
                 "record": None, "vtime": 0.75},
            ],
        },
        MessageKind.REPL_SYNC: {
            "epoch": 1,
            "checkpoint": '{"format": 1}',
            "base_seqs": {"0": 3, "2": 9},
        },
        MessageKind.REPL_PROMOTE: {},
    }
    return samples[kind]


@pytest.mark.parametrize("kind", list(MessageKind), ids=lambda k: k.value)
def test_every_kind_roundtrips_bit_identically(kind):
    message = Message(
        kind=kind,
        sender=-3,
        payload=_sample_payload(kind),
        request_id=991,
        arrival_vtime=1.875,
    )
    decoded = _roundtrip(message, expects_reply=True)
    assert decoded.kind is kind
    assert decoded.sender == -3
    assert decoded.request_id == 991
    assert decoded.arrival_vtime == 1.875
    assert decoded.trace is None
    assert decoded.reply_to is None


@pytest.mark.parametrize("kind", list(MessageKind), ids=lambda k: k.value)
def test_trace_context_survives_every_kind(kind):
    trace = (0x1234_5678_9ABC, 0x42, 7)
    message = Message(
        kind=kind,
        sender=0,
        payload=_sample_payload(kind),
        request_id=5,
        trace=trace,
    )
    decoded = _roundtrip(message)
    assert decoded.trace == trace


def test_wire_ids_are_frozen():
    # The wire table is protocol, not implementation: renumbering any
    # entry breaks mixed-version topologies.  Pin all 24; IDs 1 (the
    # removed PROBE_LRU) and 24 (the removed REPL_ACK) stay retired.
    assert {k.value: v for k, v in KIND_TO_WIRE.items()} == {
        "probe_local": 2, "probe_segment": 3, "verify": 4,
        "verify_batch": 5, "mutate_batch": 6, "insert": 7, "host_replica": 8,
        "drop_replica": 9, "replace_replica": 10, "publish": 11,
        "copy_replica_to": 12, "send_local_to": 13, "exchange_replica": 14,
        "record_lru": 15, "ping": 16, "stop": 17, "reply": 18,
        "invalidate": 19, "cohort_heartbeat": 20, "cohort_sync": 21,
        "cohort_sync_reply": 22, "repl_ship": 23,
        "repl_sync": 25, "repl_promote": 26,
    }
    assert len(KIND_TO_WIRE) == len(MessageKind)


def test_payload_value_types_roundtrip():
    message = Message(
        kind=MessageKind.PING,
        sender=1,
        payload={
            "none": None,
            "bools": [True, False],
            "ints": [0, 1, -1, 2 ** 63, -(2 ** 63), 127, 128],
            "floats": [0.0, -2.5, 1e300],
            "str": "héllo/жизнь",
            "bytes": b"\x00\xff\x80",
            "nested": {"deep": [{"x": (1, 2)}]},
        },
        request_id=1,
    )
    decoded = _roundtrip(message)
    payload = decoded.payload
    assert payload["none"] is None
    assert payload["bools"] == [True, False]
    assert payload["ints"] == [0, 1, -1, 2 ** 63, -(2 ** 63), 127, 128]
    assert payload["floats"] == [0.0, -2.5, 1e300]
    assert payload["str"] == "héllo/жизнь"
    assert payload["bytes"] == b"\x00\xff\x80"
    # Tuples are wire-normalized to lists.
    assert payload["nested"] == {"deep": [{"x": [1, 2]}]}


def test_symlink_metadata_roundtrips():
    meta = FileMetadata(
        path="/links/l",
        inode=9,
        kind=FileKind.SYMLINK,
        symlink_target="/data/a.txt",
        uid=-1,
    )
    message = Message(
        kind=MessageKind.INSERT, sender=0, payload={"meta": meta}, request_id=2
    )
    assert _roundtrip(message).payload["meta"] == meta


def test_dict_keys_are_canonicalized():
    a = Message(
        kind=MessageKind.PING, sender=0,
        payload={"b": 1, "a": 2}, request_id=3,
    )
    b = Message(
        kind=MessageKind.PING, sender=0,
        payload={"a": 2, "b": 1}, request_id=3,
    )
    assert encode_frame(a) == encode_frame(b)


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------
def _valid_frame():
    return encode_frame(
        Message(
            kind=MessageKind.VERIFY,
            sender=2,
            payload={"path": "/x"},
            request_id=10,
            trace=(1, 2, 3),
        ),
        expects_reply=True,
    )


def test_every_truncation_is_a_codec_error():
    frame = _valid_frame()
    for cut in range(len(frame)):
        with pytest.raises(CodecError):
            decode_frame(frame[:cut])


def test_trailing_bytes_rejected():
    frame = _valid_frame()
    with pytest.raises(CodecError):
        decode_frame(frame + b"\x00")
    with pytest.raises(CodecError):
        decode_body(frame[4:] + b"\x00")


def test_the_retired_wire_id_is_refused():
    """ID 1 was PROBE_LRU's; a frame that carries it decodes to no kind."""
    body = bytearray(_valid_frame()[4:])
    body[3] = 1
    with pytest.raises(CodecError, match="wire id"):
        decode_body(bytes(body))


def test_the_retired_status_poll_id_is_refused():
    """ID 24 was REPL_ACK's, a standby status poll nothing sent."""
    body = bytearray(_valid_frame()[4:])
    body[3] = 24
    with pytest.raises(CodecError, match="wire id"):
        decode_body(bytes(body))


def test_bad_magic_version_kind_flags_tag():
    body = bytearray(_valid_frame()[4:])
    with pytest.raises(CodecError, match="magic"):
        decode_body(b"XX" + bytes(body[2:]))
    bad_version = bytearray(body)
    bad_version[2] = 99
    with pytest.raises(CodecError, match="version"):
        decode_body(bytes(bad_version))
    bad_kind = bytearray(body)
    bad_kind[3] = 200
    with pytest.raises(CodecError, match="wire id"):
        decode_body(bytes(bad_kind))
    bad_flags = bytearray(body)
    bad_flags[4] = 0xF0
    with pytest.raises(CodecError, match="flag"):
        decode_body(bytes(bad_flags))


def test_oversized_length_prefix_rejected_before_allocation():
    prefix = struct.pack(">I", MAX_FRAME_BYTES + 1)
    with pytest.raises(CodecError, match="MAX_FRAME_BYTES"):
        decode_frame(prefix + b"x")


def test_oversized_body_rejected_at_encode_time():
    message = Message(
        kind=MessageKind.PING,
        sender=0,
        payload={"blob": b"\x00" * (MAX_FRAME_BYTES + 1)},
        request_id=4,
    )
    with pytest.raises(CodecError, match="MAX_FRAME_BYTES"):
        encode_frame(message)


def test_unencodable_payload_fails_on_the_sender():
    message = Message(
        kind=MessageKind.PING, sender=0,
        payload={"obj": object()}, request_id=5,
    )
    with pytest.raises(CodecError, match="cannot encode"):
        encode_frame(message)
    with pytest.raises(CodecError, match="keys must be str"):
        encode_frame(
            Message(
                kind=MessageKind.PING, sender=0,
                payload={"d": {1: "x"}}, request_id=6,
            )
        )


def test_unbounded_varint_rejected():
    header = WIRE_MAGIC + bytes([WIRE_VERSION, 16, 0])
    body = header + b"\xff" * 11  # sender varint never terminates
    with pytest.raises(CodecError, match="varint"):
        decode_body(body)


def test_huge_collection_counts_rejected():
    # A list/dict claiming more elements than bytes remaining must fail
    # fast instead of looping into truncation errors per element.
    good = encode_body(
        Message(kind=MessageKind.PING, sender=0, payload={}, request_id=7),
        expects_reply=False,
    )
    # The final bytes are the payload: dict tag + count 0.  Replace the
    # count with a huge varint.
    assert good.endswith(bytes([0x08, 0x00]))
    evil = good[:-1] + b"\xff\xff\xff\x7f"
    with pytest.raises(CodecError, match="claims"):
        decode_body(evil)


def test_int_beyond_varint_range_rejected_symmetrically():
    message = Message(
        kind=MessageKind.PING, sender=0,
        payload={"n": 1 << 80}, request_id=8,
    )
    with pytest.raises(CodecError, match="varint"):
        encode_frame(message)


# ----------------------------------------------------------------------
# Bloom serialization parity + corruption sweeps (ISSUE 9)
# ----------------------------------------------------------------------
# The packed-bitset rebuild must not move a single wire byte: a filter
# serialized by the new substrate has to be byte-identical to one built
# by the frozen per-bit reference over the same items, both directly
# (``to_bytes``) and inside a codec frame (tag 0x0A).  And a corrupted
# bloom-carrying frame must surface as the typed ``CodecError`` — never
# an ``IndexError`` / ``struct.error`` / ``OverflowError`` leak.
import random

from tests._reference_bloom import RefBloomFilter

_BLOOM_GEOMETRIES = [(61, 3, 0), (64, 4, -2), (509, 5, 7), (1024, 2, 12345)]


def _paired_filters(seed, num_bits, num_hashes, hash_seed):
    rng = random.Random(seed)
    live = BloomFilter(num_bits, num_hashes, hash_seed)
    ref = RefBloomFilter(num_bits, num_hashes, hash_seed)
    for serial in range(rng.randrange(0, 60)):
        item = f"/fuzz/d{rng.randrange(5)}/f{serial}"
        live.add(item)
        ref.add(item)
    return live, ref


@pytest.mark.parametrize("seed", range(12))
def test_bloom_wire_form_matches_reference(seed):
    geometry = _BLOOM_GEOMETRIES[seed % len(_BLOOM_GEOMETRIES)]
    live, ref = _paired_filters(seed, *geometry)
    raw = live.to_bytes()
    assert raw == ref.to_bytes()
    # The same parity must hold through the codec's 0x0A tag: frames
    # carrying either side's bytes are bit-identical.
    message = Message(
        kind=MessageKind.HOST_REPLICA,
        sender=1,
        payload={"home_id": 3, "replica": live},
        request_id=seed,
    )
    frame = encode_frame(message)
    assert raw in frame
    decoded, _ = decode_frame(frame)
    restored = decoded.payload["replica"]
    assert restored == live
    assert restored.num_items == live.num_items
    assert encode_frame(decoded) == frame


def _bloom_frame(seed=3):
    live, _ = _paired_filters(seed, 509, 5, 7)
    return encode_frame(
        Message(
            kind=MessageKind.REPLACE_REPLICA,
            sender=-1,
            payload={"home_id": 2, "replica": live},
            request_id=77,
            trace=(5, 6, 7),
        ),
        expects_reply=True,
    )


def test_bloom_frame_truncation_sweep():
    """Every prefix of a bloom-carrying frame is a typed CodecError."""
    frame = _bloom_frame()
    for cut in range(len(frame)):
        with pytest.raises(CodecError):
            decode_frame(frame[:cut])


def test_bloom_frame_bitflip_sweep():
    """Single bit flips never escape the typed error contract.

    A flip may land in the filter payload and decode as a (different)
    valid filter, or scramble a dict key into a non-canonical order —
    both decode fine.  What must never happen is an untyped exception,
    or a decoded message whose canonical re-encode is not a fixpoint
    (that would break the bit-identical determinism story downstream).
    """
    frame = _bloom_frame()
    body = frame[4:]
    for position in range(len(body)):
        for bit in range(8):
            corrupt = bytearray(body)
            corrupt[position] ^= 1 << bit
            try:
                message, expects_reply = decode_body(bytes(corrupt))
            except CodecError:
                continue
            canonical = encode_body(message, expects_reply)
            reread, reread_expects = decode_body(canonical)
            assert encode_body(reread, reread_expects) == canonical


def test_bloom_length_prefix_vs_header_mismatch():
    """A bloom blob whose varint length disagrees with its claimed
    geometry is rejected before the big-int allocation."""
    live, _ = _paired_filters(1, 64, 4, -2)
    raw = bytearray(live.to_bytes())
    # Claim 2**60 bits in the header while shipping the original bytes.
    raw[0:8] = (1 << 60).to_bytes(8, "big")
    message = Message(
        kind=MessageKind.PING, sender=0, payload={}, request_id=1
    )
    body = bytearray(encode_body(message, expects_reply=False))
    # Replace the empty dict payload with {"r": <corrupt bloom>}.
    assert body.endswith(bytes([0x08, 0x00]))
    del body[-2:]
    body += bytes([0x08, 0x01])          # dict, 1 entry
    body += bytes([0x01]) + b"r"         # key "r"
    body += bytes([0x0A])                # bloom tag
    encoded_len = bytearray()
    length = len(raw)
    while True:
        septet = length & 0x7F
        length >>= 7
        encoded_len.append(septet | (0x80 if length else 0))
        if not length:
            break
    body += bytes(encoded_len) + bytes(raw)
    with pytest.raises(CodecError, match="inconsistent"):
        decode_body(bytes(body))


# ----------------------------------------------------------------------
# What the encoder refuses, it refuses as CodecError; so does the decoder
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "payload, reason",
    [
        ({"s": "\ud800"}, "unencodable string"),  # a lone surrogate
        ({"d": {1: "x", "a": "y"}}, "keys must be str"),  # keys that do not sort
    ],
)
def test_encode_failures_are_codec_errors(payload, reason):
    message = Message(
        kind=MessageKind.PING, sender=0, payload=payload, request_id=9
    )
    with pytest.raises(CodecError, match=reason):
        encode_frame(message)


def test_a_payload_that_contains_itself_is_a_codec_error():
    loop = []
    loop.append(loop)
    message = Message(
        kind=MessageKind.PING, sender=0, payload={"l": loop}, request_id=10
    )
    with pytest.raises(CodecError, match="nested too deeply"):
        encode_frame(message)


def test_a_non_dict_payload_fails_on_the_sender():
    message = Message(
        kind=MessageKind.PING, sender=0, payload=["a"], request_id=11
    )
    with pytest.raises(CodecError, match="payload must be a dict"):
        encode_frame(message)


def test_nesting_past_the_recursion_limit_is_a_codec_error():
    # Two bytes per level (list tag, count 1): a few kilobytes of frame
    # nest deeper than the interpreter recurses.
    good = encode_body(
        Message(kind=MessageKind.PING, sender=0, payload={}, request_id=12),
        expects_reply=False,
    )
    assert good.endswith(bytes([0x08, 0x00]))
    deep = good[:-1] + bytes([0x01, 0x01]) + b"x" + b"\x07\x01" * 5000 + b"\x00"
    with pytest.raises(CodecError, match="nested too deeply"):
        decode_body(deep)
