"""Trace intensification (TIF scale-up), paper Section 4.

The paper scales its workloads by decomposing a trace into subtraces and
"intentionally forc[ing] them to have disjoint group ID, user ID and working
directories by appending a subtrace number in each record", preserving
timing within each subtrace and replaying all subtraces concurrently from
the same start time.

:func:`intensify` implements exactly that: it takes a base trace, stamps out
``tif`` disjoint copies (prefixing every path with ``/tif<k>`` and offsetting
uid/host ranges) and merges them by timestamp.  The result keeps the same
histogram of file-system calls as the original but with ``tif``-fold
intensity.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence

from repro.traces.records import TraceRecord

#: Offsets that keep subtrace uid/host ranges disjoint.
UID_STRIDE = 1_000_000
HOST_STRIDE = 1_000_000


def subtrace(records: Sequence[TraceRecord], index: int) -> List[TraceRecord]:
    """Return the ``index``-th disjoint copy of ``records``."""
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    if index == 0:
        return list(records)
    prefix = f"/tif{index}"
    return [
        record.relocated(
            subtrace=index,
            path_prefix=prefix,
            uid_offset=index * UID_STRIDE,
            host_offset=index * HOST_STRIDE,
        )
        for record in records
    ]


def intensify(records: Sequence[TraceRecord], tif: int) -> List[TraceRecord]:
    """Scale ``records`` up by a Trace Intensifying Factor of ``tif``.

    Returns the merged, timestamp-ordered union of ``tif`` disjoint
    subtraces.  ``tif=1`` returns a copy of the input.
    """
    if tif <= 0:
        raise ValueError(f"tif must be positive, got {tif}")
    streams: List[List[TraceRecord]] = [
        subtrace(records, index) for index in range(tif)
    ]
    merged = list(
        heapq.merge(*streams, key=lambda record: record.timestamp)
    )
    return merged
