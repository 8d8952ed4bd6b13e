"""Cohort benchmark: invalidation multicast vs N independent gateways.

The acceptance experiment for the distributed gateway cohort
(:mod:`repro.gateway.cohort`): on one seeded trace, replayed under a
seeded fault plan (drops, delays, duplicates, a mid-run partition), the
multicast-coherent cohort must send **at least 1.5x fewer** queries to
the MDS fleet than N independent gateways offering the *same* staleness
bound — and the auditor must observe **zero** staleness-bound violations
on either deployment.

Runs the same scenario as ``python -m repro.gateway bench --cohort N``.
"""

import dataclasses

import pytest

from repro.gateway.scenario import ScenarioSpec
from repro.gateway.scenarios import run_cohort

SPEC = ScenarioSpec(
    servers=20,
    group_size=5,
    files=3_000,
    ops=20_000,
    clients=8,
    profile="HP",
    seed=7,
    cache_capacity=4096,
    lease_ttl_s=30.0,
    rate_per_s=2000.0,
    hot_threshold=32,
    cohort=4,
    heartbeat_s=0.05,
    suspect_after_s=0.15,
    ttl_clamp_s=0.10,
    trace_rate=150.0,
)


@pytest.fixture(scope="module")
def cohort_stats():
    # One replay shared by the whole module; everything asserted below is
    # a deterministic simulation output, not a wall-clock timing.
    return run_cohort(SPEC).stats


def test_backend_query_reduction(cohort_stats):
    """Cohort sends >= 1.5x fewer fleet queries than independents."""
    assert cohort_stats["backend_queries_cohort"] > 0
    assert cohort_stats["backend_reduction"] >= 1.5, cohort_stats


def test_zero_staleness_violations(cohort_stats):
    """No audited read was staler than the advertised bound — either side."""
    assert cohort_stats["violations"] == 0
    assert cohort_stats["independent_violations"] == 0


def test_protocol_exercised_under_faults(cohort_stats):
    """The fault plan actually stressed the protocol (non-vacuous run)."""
    assert cohort_stats["invalidations_published"] > 0
    assert cohort_stats["invalidations_applied"] > 0
    assert cohort_stats["gaps_detected"] > 0, "drops never opened a seq gap"
    assert cohort_stats["sync_records_recovered"] > 0
    assert cohort_stats["peer_outages"] > 0, "partition never suspected a peer"
    assert cohort_stats["clamp_engagements"] > 0


@pytest.mark.slow
def test_soak_larger_cohort_holds_bound():
    """Soak variant: a wider cohort on a longer trace still holds the bound."""
    stats = run_cohort(
        dataclasses.replace(SPEC, cohort=6, ops=40_000, seed=11)
    ).stats
    assert stats["violations"] == 0
    assert stats["independent_violations"] == 0
    assert stats["backend_reduction"] >= 1.5, stats
