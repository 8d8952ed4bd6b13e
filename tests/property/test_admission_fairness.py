"""Property tests: per-tenant admission vs a weighted max-min oracle.

Seeded scripts on ``tests._harness``: each seed generates a random sequence
of demand ticks — per tick, each tenant wants 0..8 tokens at a random
virtual instant — and replays it through a
:class:`FairAdmissionController` with a zero-capacity queue, so every
tick's outcome is exactly the allocator's split of that instant's
refilled tokens.  Invariants checked against the max-min oracle on every
tick:

- **weighted floor** — a tenant with unmet demand never receives less
  than ``min(demand, floor(tokens * w / W))``, its weighted share of
  the tick's tokens among demanding tenants;
- **work conservation** — admissions total exactly
  ``min(tokens, total demand)``: tokens idle tenants do not claim are
  spent on the hungry, never parked;
- **demand bound** — no tenant is ever granted more than it asked;
- **explicit sheds** — everything not admitted sheds with cause
  ``queue_full`` (capacity 0), and the running stats reconcile exactly
  (``submitted == admitted + shed``, per tenant and in aggregate).

On failure the harness shrinks the tick sequence to a minimal
still-failing subsequence before asserting, so the report is actionable.
"""

import random
from collections import Counter

import pytest

from repro.gateway.admission import (
    SHED_QUEUE_FULL,
    FairAdmissionController,
)

from tests._harness import check, replay

SEEDS = range(24)

TENANTS = ["a", "b", "c", "d"]
WEIGHTS = {"a": 1.0, "b": 1.0, "c": 2.0, "d": 0.5}


def _generate_ticks(seed, length=80):
    """A reproducible demand schedule; each tick carries its own
    timestamp so any subsequence replays deterministically while
    shrinking."""
    rng = random.Random(seed)
    ticks = []
    now = 0.0
    for _ in range(length):
        now += 0.02 + rng.random() * 0.1
        demands = {}
        for tenant in TENANTS:
            if rng.random() < 0.7:
                count = rng.randrange(0, 9)
                if count:
                    demands[tenant] = count
        ticks.append((now, demands))
    return ticks


def _run(ticks):
    """Replay ``ticks``; return a failure description or ``None``."""
    controller = FairAdmissionController(
        rate_per_s=40.0, burst=8.0, queue_capacity=0
    )
    for tenant, weight in sorted(WEIGHTS.items()):
        controller.set_weight(tenant, weight)

    def step(tick):
        now, demands = tick
        items = [
            (tenant, f"{tenant}{index}")
            for tenant in sorted(demands)
            for index in range(demands[tenant])
        ]
        tokens = int(controller.bucket.tokens(now))
        result = controller.submit_tick(items, now)
        admitted = Counter(tenant for tenant, _ in result.admitted)
        total_demand = sum(demands.values())
        expected = min(tokens, total_demand)
        if sum(admitted.values()) != expected:
            return (
                f"work conservation broken at t={now:.3f}: admitted "
                f"{sum(admitted.values())} of min(tokens={tokens}, "
                f"demand={total_demand})"
            )
        total_weight = sum(WEIGHTS[t] for t in demands)
        for tenant, demand in demands.items():
            floor = min(
                demand, int(tokens * WEIGHTS[tenant] / total_weight)
            )
            if admitted[tenant] < floor:
                return (
                    f"floor violated at t={now:.3f}: {tenant} got "
                    f"{admitted[tenant]} < floor {floor} "
                    f"(demand {demand}, tokens {tokens})"
                )
            if admitted[tenant] > demand:
                return (
                    f"over-grant at t={now:.3f}: {tenant} got "
                    f"{admitted[tenant]} for demand {demand}"
                )
        for tenant, _, cause in result.shed:
            if cause != SHED_QUEUE_FULL:
                return (
                    f"unexpected shed cause {cause!r} at t={now:.3f} "
                    f"(capacity-0 queue only sheds {SHED_QUEUE_FULL!r})"
                )
        return None

    failure = replay(ticks, step)
    if failure is not None:
        return failure
    stats = controller.stats
    if stats.admitted + stats.shed != stats.submitted:
        return (
            f"aggregate reconciliation broken: {stats.admitted} + "
            f"{stats.shed} != {stats.submitted}"
        )
    for tenant in controller.tenants():
        tenant_stats = controller.tenant_stats(tenant)
        if (
            tenant_stats.admitted + tenant_stats.shed
            != tenant_stats.submitted
        ):
            return (
                f"tenant {tenant} reconciliation broken: "
                f"{tenant_stats.admitted} + {tenant_stats.shed} != "
                f"{tenant_stats.submitted}"
            )
    return None


@pytest.mark.parametrize("seed", SEEDS)
def test_random_demand_respects_max_min_oracle(seed):
    check(seed, _generate_ticks(seed), _run)


def test_idle_tenants_redistribute_to_the_hungry():
    """Work conservation in the directed case: with three of four
    tenants idle, the demanding tenant takes the whole tick's tokens —
    not just its own quarter-share."""
    controller = FairAdmissionController(
        rate_per_s=40.0, burst=8.0, queue_capacity=0
    )
    # Register every tenant so the controller knows the idle ones exist.
    for tenant in TENANTS:
        controller.set_weight(tenant, WEIGHTS[tenant])
    result = controller.submit_tick(
        [("d", f"d{i}") for i in range(8)], 0.0
    )
    assert len(result.admitted) == 8  # full burst, weight 0.5 or not
    assert not result.shed


def test_shrinker_finds_minimal_schedules():
    """The harness shrinks this suite's schedules: a synthetic failure on
    any demand from tenant ``c`` reduces to a single tick (guards against
    a shrinker that silently stops shrinking and reports giant
    schedules)."""
    with pytest.raises(pytest.fail.Exception, match=r"\nshrunk to 1 ops: \[.*\]\nstep 0 "):
        check(99, _generate_ticks(99, length=30), lambda ticks: replay(
            ticks, lambda tick: "synthetic" if "c" in tick[1] else None
        ))
