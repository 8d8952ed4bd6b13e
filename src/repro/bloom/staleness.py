"""False-rate analysis of stale Bloom filter replicas (Zhu & Jiang, ICPP'06).

The paper's reliability argument rests on its companion analysis [33] of
what happens when replicas lag the authoritative filter:

- **False negatives** — items *added* at the home MDS after the snapshot
  are entirely absent from the replica: the replica misses them with
  probability ``1 - fpr`` (it can still fire by coincidence).
- **False positives** — items *deleted* after the snapshot leave their
  bits set in the replica forever (plain filters cannot clear bits), so
  the replica keeps claiming them with probability ~1, on top of the
  hash-collision false positives every filter has.

These rates drive Figure 13's observation that L4 traffic grows with N:
more servers under a fixed update budget means more accumulated staleness.

The functions here give the analytic rates; the test suite checks them
against live filters empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bloom.analysis import false_positive_rate
from repro.bloom.bloom_filter import BloomFilter

#: Random probes :func:`measure_staleness` draws.
STALENESS_PROBES = 1_000


@dataclass(frozen=True)
class StalenessRates:
    """Analytic false rates of one stale replica.

    Attributes
    ----------
    false_negative_rate:
        Probability a query for a post-snapshot *addition* misses.
    false_positive_deleted:
        Probability a query for a post-snapshot *deletion* still hits.
    base_false_positive_rate:
        The ordinary hash-collision rate for never-inserted items.
    """

    false_negative_rate: float
    false_positive_deleted: float
    base_false_positive_rate: float


def stale_replica_rates(
    num_bits: int,
    num_hashes: int,
    items_at_snapshot: int,
    added_since: int,
    deleted_since: int,
) -> StalenessRates:
    """Analytic false rates for a replica lagging by the given churn.

    Parameters
    ----------
    num_bits / num_hashes:
        Filter geometry (m, k).
    items_at_snapshot:
        Items the replica represents (n at publication time).
    added_since:
        Items inserted at the home MDS after publication (cause false
        negatives at the replica).
    deleted_since:
        Items removed after publication (cause false positives — their
        bits persist both in the replica *and* in the home's live filter
        until a rebuild).
    """
    if added_since < 0 or deleted_since < 0:
        raise ValueError("churn counts must be non-negative")
    if deleted_since > items_at_snapshot:
        raise ValueError(
            "cannot delete more items than the snapshot contained"
        )
    base_fpr = false_positive_rate(num_bits, items_at_snapshot, num_hashes)
    # An added item hits the stale replica only by collision.
    false_negative = 1.0 - base_fpr
    # A deleted item's own bits are all still set: certain hit.
    return StalenessRates(
        false_negative_rate=false_negative,
        false_positive_deleted=1.0,
        base_false_positive_rate=base_fpr,
    )


def expected_l4_escape_rate(
    fraction_queries_to_fresh_items: float,
    group_coverage: float,
) -> float:
    """Probability a query escapes to L4 because of replica staleness.

    A query for a fresh (not-yet-replicated) item resolves within the
    group only if the origin's group contains the item's home MDS — whose
    *local* filter is always current — which happens with probability
    ``group_coverage`` (≈ M/N).  Everything else falls through to L4.

    This is the analytic form of the Figure 13 staleness effect.
    """
    if not 0.0 <= fraction_queries_to_fresh_items <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    if not 0.0 <= group_coverage <= 1.0:
        raise ValueError("group_coverage must be in [0, 1]")
    return fraction_queries_to_fresh_items * (1.0 - group_coverage)


def measure_staleness(live: BloomFilter, replica: BloomFilter) -> float:
    """Empirical drift: fraction of random probes the two filters disagree on.

    A cheap Monte-Carlo alternative to the XOR bit-difference for deciding
    whether a replica needs refreshing; used in tests to cross-validate the
    analytic rates.
    """
    if not live.is_compatible(replica):
        raise ValueError("filters are incompatible")
    disagreements = 0
    for index in range(STALENESS_PROBES):
        probe = f"__staleness_probe_{index}"
        if live.query(probe) != replica.query(probe):
            disagreements += 1
    return disagreements / STALENESS_PROBES
