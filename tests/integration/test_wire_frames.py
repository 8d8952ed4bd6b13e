"""The wire bytes, pinned: every frame the codec writes is held to a hex
recording in ``data/wire_frames.json``.

The recording covers ``test_net_codec._sample_payload`` for every
``MessageKind`` (with and without trace context) and the four frame
shapes of the ``wire_mixed`` benchmark: a ``VERIFY_BATCH`` request and
its reply, and a ``MUTATE_BATCH`` request of four creates and its reply.
A codec rewrite must reproduce each frame byte for byte, and decoding a
recorded frame must re-encode to the same bytes.

Re-record (only for a deliberate wire change, which also bumps
``WIRE_VERSION``)::

    PYTHONPATH=src python -m tests.integration.test_wire_frames
"""

import json
from pathlib import Path

import pytest

from repro.metadata.attributes import FileMetadata
from repro.net.codec import decode_frame, encode_frame
from repro.prototype.messages import Message, MessageKind
from tests.unit.test_net_codec import _sample_payload

DATA = Path(__file__).parent / "data" / "wire_frames.json"

#: Four paths of one ``wire_mixed`` lookup tick's home (seed 7).
WIRE_PATHS = [
    "/d5/s5/s2/dir313/f313_4",
    "/d3/s7/s9/dir304/f304_2",
    "/d6/s4/s2/dir48/f48_8",
    "/d0/s3/s1/s4/dir245/f245_2",
]
#: What ``wire_mixed`` sends as: the client's sender id, and request ids
#: of the width a timed execution reaches.
CLIENT_SENDER = -1
REQUEST_ID = 20_517


def wire_mixed_messages():
    """``name -> (message, expects_reply)`` for the four wire_mixed shapes."""
    verify = Message(
        kind=MessageKind.VERIFY_BATCH,
        sender=CLIENT_SENDER,
        payload={"paths": list(WIRE_PATHS)},
        request_id=REQUEST_ID,
    )
    verify_reply = verify.reply(
        found={path: index != 2 for index, path in enumerate(WIRE_PATHS)},
        finish_vtime=0.4213125,
    )
    mutations = [
        {
            "version": 213 + index,
            "op": "create",
            "path": path,
            "record": FileMetadata(path=path, inode=640 + index, size=639 + index),
        }
        for index, path in enumerate(WIRE_PATHS)
    ]
    mutate = Message(
        kind=MessageKind.MUTATE_BATCH,
        sender=CLIENT_SENDER,
        payload={"origin": 0, "acked": 212, "mutations": mutations},
        request_id=REQUEST_ID + 1,
    )
    mutate_reply = mutate.reply(
        outcomes=[
            {
                "version": raw["version"],
                "op": raw["op"],
                "path": raw["path"],
                "applied": True,
                "changed": True,
                "deduped": False,
            }
            for raw in mutations
        ],
        finish_vtime=0.4263125,
    )
    return {
        "wire_mixed/verify_batch": (verify, True),
        "wire_mixed/verify_batch_reply": (verify_reply, False),
        "wire_mixed/mutate_batch": (mutate, True),
        "wire_mixed/mutate_batch_reply": (mutate_reply, False),
    }


def messages():
    """Every pinned ``name -> (message, expects_reply)``."""
    pinned = {}
    for kind in MessageKind:
        pinned[f"sample/{kind.value}"] = (
            Message(
                kind=kind,
                sender=-3,
                payload=_sample_payload(kind),
                request_id=991,
                arrival_vtime=1.875,
            ),
            True,
        )
        pinned[f"sample/{kind.value}+trace"] = (
            Message(
                kind=kind,
                sender=0,
                payload=_sample_payload(kind),
                request_id=5,
                trace=(0x1234_5678_9ABC, 0x42, 7),
            ),
            False,
        )
    pinned.update(wire_mixed_messages())
    return pinned


def recorded():
    """``name -> frame bytes`` as recorded."""
    return {name: bytes.fromhex(hex_) for name, hex_ in json.loads(DATA.read_text()).items()}


def test_recording_covers_every_pinned_frame():
    assert sorted(recorded()) == sorted(messages())


@pytest.mark.parametrize("name", sorted(messages()))
def test_encoder_reproduces_the_recorded_frame(name):
    message, expects_reply = messages()[name]
    assert encode_frame(message, expects_reply) == recorded()[name]


@pytest.mark.parametrize("name", sorted(messages()))
def test_recorded_frame_decodes_and_re_encodes_to_itself(name):
    frame = recorded()[name]
    decoded, expects_reply = decode_frame(frame)
    assert encode_frame(decoded, expects_reply) == frame
    assert expects_reply is messages()[name][1]


if __name__ == "__main__":
    DATA.write_text(
        json.dumps(
            {
                name: encode_frame(message, expects_reply).hex()
                for name, (message, expects_reply) in sorted(messages().items())
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"recorded {len(messages())} frames in {DATA}")
