"""Compressed Bloom filter transfer (Mitzenmacher 2002, paper Section 6).

The paper's related work cites compressed Bloom filters as a standard way
to cut the *transmission* size of a filter: a filter tuned for a low
in-memory false-positive rate is sparse (fill ratio well under 1/2), and a
sparse bit vector compresses far below its raw size.  G-HBA ships filter
replicas on every update and reconfiguration, so transfer size matters.

:func:`compress_filter` / :func:`decompress_filter` wrap the filter's
serialization with DEFLATE (zlib, stdlib) and report the achieved ratio;
:func:`transfer_cost_report` quantifies the saving for a given filter —
used by the replica-shipping accounting and its tests.

The information-theoretic floor for a vector with fill ratio ``p`` is the
binary entropy ``H(p)`` bits per bit; :func:`entropy_bound_bytes` exposes
it so tests can check DEFLATE lands between the floor and the raw size.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

from repro.bloom.bloom_filter import BloomFilter

#: zlib level used for replica shipping: best ratio, still microseconds for
#: the kilobyte-scale filters in play.
COMPRESSION_LEVEL = 9


@dataclass(frozen=True)
class TransferCost:
    """Size accounting for shipping one filter replica."""

    raw_bytes: int
    compressed_bytes: int
    fill_ratio: float
    entropy_bound_bytes: int

    @property
    def ratio(self) -> float:
        """Compressed size relative to raw (< 1 means savings)."""
        if self.raw_bytes == 0:
            return 1.0
        return self.compressed_bytes / self.raw_bytes


def compress_filter(bloom: BloomFilter) -> bytes:
    """Serialize and DEFLATE-compress ``bloom`` for transfer."""
    return zlib.compress(bloom.to_bytes(), COMPRESSION_LEVEL)


def decompress_filter(payload: bytes) -> BloomFilter:
    """Reverse of :func:`compress_filter`."""
    return BloomFilter.from_bytes(zlib.decompress(payload))


def binary_entropy(p: float) -> float:
    """The binary entropy H(p) in bits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def entropy_bound_bytes(bloom: BloomFilter) -> int:
    """Information-theoretic floor for the filter's bit payload."""
    bits = bloom.num_bits * binary_entropy(bloom.fill_ratio())
    return math.ceil(bits / 8)


def transfer_cost_report(bloom: BloomFilter) -> TransferCost:
    """Measure the transfer saving for one replica."""
    raw = bloom.to_bytes()
    compressed = compress_filter(bloom)
    return TransferCost(
        raw_bytes=len(raw),
        compressed_bytes=len(compressed),
        fill_ratio=bloom.fill_ratio(),
        entropy_bound_bytes=entropy_bound_bytes(bloom),
    )
