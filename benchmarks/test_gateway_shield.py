"""Gateway shield benchmark: backend-query reduction with zero stale reads.

The acceptance experiment for the gateway tier (:mod:`repro.gateway`): a
seeded Zipfian workload replayed through the gateway must send **at least
2x fewer** queries to the MDS fleet than direct cluster access, while every
cache-served answer matches the live cluster at read time (the bench audits
each one — zero stale reads is asserted, not sampled).

Runs the same scenario as ``python -m repro.gateway bench``.
"""

import pytest

from repro.gateway.scenario import ScenarioSpec
from repro.gateway.scenarios import run_shield

SPEC = ScenarioSpec(
    servers=20,
    group_size=5,
    files=2_000,
    ops=4_000,
    clients=8,
    profile="HP",
    seed=7,
    cache_capacity=4096,
    lease_ttl_s=5.0,
    rate_per_s=2000.0,
    hot_threshold=32,
    top=5,
    chaos=False,
    chaos_start_s=0.5,
    chaos_window_s=1.0,
)


@pytest.fixture(scope="module")
def shield_stats():
    # One replay shared by the whole module.  No pytest-benchmark here:
    # the interesting numbers (reduction, hit rate, virtual latency) are
    # deterministic simulation outputs, not wall-clock timings.
    return run_shield(SPEC).stats


def test_backend_query_reduction(shield_stats):
    """Gateway sends >= 2x fewer queries to the fleet than direct access."""
    assert shield_stats["backend_queries"] > 0
    assert shield_stats["direct_queries"] >= shield_stats["lookups_submitted"]
    assert shield_stats["backend_reduction"] >= 2.0, shield_stats


def test_zero_stale_reads(shield_stats):
    """Every cache-served answer matched the live cluster at read time."""
    assert shield_stats["stale_reads"] == 0
    assert shield_stats["home_mismatches"] == 0


def test_shed_accounting(shield_stats):
    """Nothing vanished: answers + sheds + still-queued cover submissions."""
    answered = sum(
        count
        for outcome, count in shield_stats["outcomes"].items()
        if outcome not in ("rejected", "queued")
    )
    assert answered + shield_stats["shed"] >= shield_stats["lookups_submitted"]
