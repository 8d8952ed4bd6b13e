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


def intersection_excess_probability(
    num_bits: int,
    num_hashes: int,
    a_only_items: int,
    b_only_items: int,
) -> float:
    """Section 3.4's intersection analysis, as a computable function.

    The paper states that the false-positive probability of the directly
    built ``BF(A ∩ B)`` is smaller than that of the bitwise
    ``BF(A) & BF(B)`` *with probability*

        (1 - (1 - 1/m)^(k |A - (A∩B)|)) * (1 - (1 - 1/m)^(k |B - (A∩B)|)),

    i.e. the probability that both exclusive sides contribute at least one
    extra bit position to the AND (each term is the chance that a given
    position is touched by the side's exclusive items).  When either side
    has no exclusive items the AND equals the direct filter and the excess
    vanishes.
    """
    if num_bits <= 0:
        raise ValueError(f"num_bits must be positive, got {num_bits}")
    if num_hashes <= 0:
        raise ValueError(f"num_hashes must be positive, got {num_hashes}")
    if a_only_items < 0 or b_only_items < 0:
        raise ValueError("exclusive item counts must be non-negative")
    miss = 1.0 - 1.0 / num_bits
    term_a = 1.0 - miss ** (num_hashes * a_only_items)
    term_b = 1.0 - miss ** (num_hashes * b_only_items)
    return term_a * term_b


def measured_false_positive_rate(
    bloom: BloomFilter, probes: int = 2_000, tag: str = "fpr"
) -> float:
    """Empirical false-positive rate over never-inserted probe items."""
    if probes <= 0:
        raise ValueError(f"probes must be positive, got {probes}")
    hits = sum(
        1 for index in range(probes) if bloom.query(f"__{tag}_probe_{index}")
    )
    return hits / probes


def merge_into(target: BloomFilter, source: BloomFilter) -> None:
    """In-place union: fold ``source`` into ``target`` (Property 1)."""
    _check_pair(target, source)
    target._bits |= source._bits
    target._num_items += source.num_items
