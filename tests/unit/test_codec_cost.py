"""What one ``wire_mixed`` frame costs the codec, counted, not timed.

Under ``sys.settrace`` (``tests/_linecount.py``) the number of source
lines executed in ``repro/net/codec.py`` to encode, and to decode, each
of the three frames the ``wire_mixed`` benchmark sends most: a
``VERIFY_BATCH`` request of four paths, its reply, and a
``MUTATE_BATCH`` request of four creates (the shapes pinned byte for
byte in ``tests/integration/data/wire_frames.json``).

``PREVIOUS`` holds what the codec this one replaced executed on the same
frames: a ``_Reader`` cursor object that sliced one byte per ``take()``
call.  The offset-based codec must execute at most two thirds of those
lines to encode and at most half to decode; ``CEILING`` holds its own
counts, so a change that puts work back on the per-value path fails here
before it shows in a wall clock.

The counts are CPython 3.11's line events.  Other versions report
multi-line statements and ``try:`` lines a little differently, so there
the ceilings carry a 10 % allowance, which still keeps every count
inside the two-thirds / one-half bound.
"""

import sys

import pytest

import repro.net.codec as codec
from repro.net.codec import decode_frame, encode_frame
from tests._linecount import lines_executed
from tests.integration.test_wire_frames import wire_mixed_messages

#: frame -> (encode lines, decode lines) of the replaced ``_Reader`` codec.
PREVIOUS = {
    "wire_mixed/verify_batch": (190, 350),
    "wire_mixed/verify_batch_reply": (203, 390),
    "wire_mixed/mutate_batch": (1225, 2127),
}
#: frame -> (encode lines, decode lines) of this codec.
CEILING = {
    "wire_mixed/verify_batch": (91, 142),
    "wire_mixed/verify_batch_reply": (112, 154),
    "wire_mixed/mutate_batch": (614, 730),
}
ALLOWANCE = 1.0 if sys.version_info[:2] == (3, 11) else 1.1


def _lines(call):
    return lines_executed(call, codec.__file__)


@pytest.mark.parametrize("name", sorted(CEILING))
def test_codec_lines_per_frame(name):
    message, expects_reply = wire_mixed_messages()[name]
    frame = encode_frame(message, expects_reply)
    encode = _lines(lambda: encode_frame(message, expects_reply))
    decode = _lines(lambda: decode_frame(frame))
    ceiling_encode, ceiling_decode = CEILING[name]
    assert encode <= ceiling_encode * ALLOWANCE, (encode, ceiling_encode)
    assert decode <= ceiling_decode * ALLOWANCE, (decode, ceiling_decode)


@pytest.mark.parametrize("name", sorted(CEILING))
def test_ceilings_keep_the_cut(name):
    previous_encode, previous_decode = PREVIOUS[name]
    ceiling_encode, ceiling_decode = CEILING[name]
    assert ceiling_encode * 1.1 <= previous_encode * 2 / 3
    assert ceiling_decode * 1.1 <= previous_decode / 2
