"""Algebraic operations on Bloom filters (paper Section 3.4).

The paper uses three algebraic properties of Bloom filters built with the
same geometry and hash functions:

- **Property 1** — the union of two sets is represented by the bitwise OR of
  their filters: ``BF(A ∪ B) = BF(A) | BF(B)`` exactly.
- **Property 2** — the bitwise AND approximates the intersection:
  ``BF(A) & BF(B)`` contains every bit of ``BF(A ∩ B)`` and possibly more.
- **Property 3** — the XOR of the sets, ``A ⊕ B = (A − B) ∪ (B − A)``, is
  approximated by combining unions and intersections; at the *bit vector*
  level, the XOR of two filters highlights exactly the positions where they
  differ.

The bit-level XOR drives the replica update rule: an MDS periodically XORs
its live local filter against the version last shipped to remote groups, and
re-replicates only when the number of differing bits exceeds a threshold.
:func:`needs_update` is that rule; ``GHBACluster.synchronize_replicas``
applies it to every server, so the rule lives here alone.
"""

from __future__ import annotations

from repro.bloom.bloom_filter import BloomFilter, popcount


def _check_pair(a: BloomFilter, b: BloomFilter) -> None:
    if not a.is_compatible(b):
        raise ValueError(
            "filters are incompatible (geometry or hash family differs): "
            f"{a!r} vs {b!r}"
        )


def bloom_union(a: BloomFilter, b: BloomFilter) -> BloomFilter:
    """Return ``BF(A ∪ B)`` — exact per paper Property 1.

    The resulting filter answers membership for ``A ∪ B`` exactly as a filter
    built from scratch over the union would (identical bit vector).
    """
    _check_pair(a, b)
    return a._with_bits(a.bits | b.bits, a.num_items + b.num_items)


def bloom_intersection(a: BloomFilter, b: BloomFilter) -> BloomFilter:
    """Return the AND approximation of ``BF(A ∩ B)`` — paper Property 2.

    Every member of ``A ∩ B`` is contained (no false negatives) but the
    false-positive rate exceeds that of a filter built directly over the
    intersection.
    """
    _check_pair(a, b)
    # Item count is unknowable from bits alone; the min is a safe upper bound.
    return a._with_bits(a.bits & b.bits, min(a.num_items, b.num_items))


def bloom_xor(a: BloomFilter, b: BloomFilter) -> BloomFilter:
    """Return the bit-level XOR of two filters — paper Property 3.

    The set bits mark exactly the positions where the filters differ.  The
    result is primarily useful for *difference measurement* (see
    :func:`bit_difference`), not membership queries.
    """
    _check_pair(a, b)
    return a._with_bits(a.bits ^ b.bits, abs(a.num_items - b.num_items))


def bit_difference(a: BloomFilter, b: BloomFilter) -> int:
    """Return the Hamming distance between two filters' bit vectors.

    This is the quantity the XOR-threshold update rule compares against its
    threshold (paper Section 3.4, last paragraph).
    """
    _check_pair(a, b)
    return popcount(a.bits ^ b.bits)


def needs_update(local: BloomFilter, replica: BloomFilter, threshold: int) -> bool:
    """Return True if ``replica`` is stale enough to warrant re-replication.

    Parameters
    ----------
    local:
        The authoritative, live filter on the home MDS.
    replica:
        The version currently held by remote MDSs.
    threshold:
        Maximum tolerated number of differing bits; a difference strictly
        greater than this triggers an update message.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    return bit_difference(local, replica) > threshold

