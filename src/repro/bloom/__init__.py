"""Bloom filter substrate for the G-HBA reproduction.

This package implements, from scratch, every probabilistic data structure the
paper relies on:

- :class:`~repro.bloom.hashing.HashFamily` — ``k`` index functions derived by
  double hashing, the standard construction for Bloom filters.
- :class:`~repro.bloom.bloom_filter.BloomFilter` — the standard filter
  (Bloom, 1970), its ``m`` bits packed into one Python int.
- :class:`~repro.bloom.counting.CountingBloomFilter` — counting variant
  supporting deletion (Fan et al., Summary Cache), used by the IDBFA.
- :mod:`~repro.bloom.algebra` — union / intersection / XOR of filters
  (paper Section 3.4, Properties 1-3) plus bit-difference used by the
  XOR-threshold replica update rule.
- :mod:`~repro.bloom.analysis` — false-positive mathematics: the optimal
  false rate ``f0 = 0.6185^(m/n)`` and the segment-array false-positive
  probability of the paper's Equation 1.
- :mod:`~repro.bloom.arrays` — the Bloom filter *arrays* that form G-HBA's
  query levels: the plain :class:`BloomFilterArray`, the
  :class:`LRUBloomFilterArray` (L1) and the identification array
  :class:`IDBloomFilterArray` used for replica localization.
"""

from repro.bloom.hashing import HashFamily
from repro.bloom.bloom_filter import BloomFilter
from repro.bloom.counting import CountingBloomFilter
from repro.bloom.algebra import (
    bloom_union,
    bloom_intersection,
    bloom_xor,
    bit_difference,
)
from repro.bloom.analysis import (
    optimal_num_hashes,
    false_positive_rate,
    optimal_false_positive_rate,
    segment_array_false_positive_rate,
)
from repro.bloom.arrays import (
    ArrayLookup,
    BloomFilterArray,
    LRUBloomFilterArray,
    IDBloomFilterArray,
    REPLACEMENT_POLICIES,
)
from repro.bloom.compressed import (
    TransferCost,
    compress_filter,
    decompress_filter,
    transfer_cost_report,
)

__all__ = [
    "HashFamily",
    "BloomFilter",
    "CountingBloomFilter",
    "bloom_union",
    "bloom_intersection",
    "bloom_xor",
    "bit_difference",
    "optimal_num_hashes",
    "false_positive_rate",
    "optimal_false_positive_rate",
    "segment_array_false_positive_rate",
    "ArrayLookup",
    "BloomFilterArray",
    "LRUBloomFilterArray",
    "IDBloomFilterArray",
    "REPLACEMENT_POLICIES",
    "TransferCost",
    "compress_filter",
    "decompress_filter",
    "transfer_cost_report",
]
