"""Integration: tenant isolation under a noisy neighbour + faults.

One Zipf-hot tenant (``u0``) floods a gateway shared with quieter
tenants while a seeded fault plan (message loss plus a mid-run partition
islanding part of the fleet) runs underneath.  The suite replays the
same multi-tenant trace through:

- the **fair** per-tenant controller (twice — counters must be
  bit-identical per seed),
- the legacy **global** bucket, and
- per-tenant **solo** baselines (each tenant alone on an identical
  fresh stack).

A *quiet* tenant is one whose demand fits inside its weighted max-min
share (isolation is a promise to exactly those tenants).  Asserted:

- every quiet tenant's goodput stays within 10% of its solo baseline
  and its shed rate stays bounded under the fair controller;
- quiet p50 latency stays in the same regime as solo (no queue-induced
  latency regime shift);
- the replay is deterministic: the repeat's per-tenant counter digest
  is bit-identical;
- **non-vacuity**: the global-bucket config demonstrably *fails* the
  isolation bound for at least one quiet tenant — if it ever stops
  failing, the fair controller is no longer being compared against a
  meaningful baseline.
"""

import dataclasses
from typing import Optional

import pytest

from repro.faults.injector import PlanFaultInjector
from repro.faults.plan import FaultPlan, Partition
from repro.gateway.admission import fractional_fair_shares
from repro.gateway.scenario import ScenarioSpec
from repro.gateway.tenant_bench import NOISY_TENANT, replay_admission
from repro.traces.profiles import PROFILES
from repro.traces.synthetic import SyntheticTraceGenerator
from repro.traces.tenants import TenantModel

TRACE_RATE = 200.0
RATE_PER_S = 100.0  # half the offered load: genuinely contended
NUM_TENANTS = 4


@dataclasses.dataclass(frozen=True)
class _UnderFaults(ScenarioSpec):
    """Every fleet it builds runs beneath a fresh injector of ``plan``."""

    plan: Optional[FaultPlan] = None

    def fleet(self, paths, tracer=None, faults=None):
        return super().fleet(paths, tracer, PlanFaultInjector(self.plan))


def _args(seed):
    return _UnderFaults(
        servers=6,
        group_size=4,
        files=400,
        seed=seed,
        cache_capacity=1024,
        lease_ttl_s=5.0,
        hot_threshold=32,
        plan=_fault_plan(seed),
    )


def _fault_plan(seed):
    return FaultPlan(
        seed=seed,
        drop_rate=0.05,
        partitions=(
            Partition(start_s=2.0, end_s=4.0, island=frozenset({0, 1})),
        ),
    )


def _lookups(args):
    generator = SyntheticTraceGenerator(
        PROFILES["HP"],
        num_files=args.files,
        seed=args.seed,
        ops_per_second=TRACE_RATE,
        tenants=TenantModel(NUM_TENANTS, zipf_alpha=2.0),
    )
    records = [
        record
        for record in generator.generate(1400)
        if record.op.is_lookup
    ]
    return records, generator.paths


def _quiet_tenants(fair):
    """Tenants whose demand fits inside their equal-weight max-min
    share of the capacity the fair run actually delivered."""
    per_tenant = fair["per_tenant"]
    demands = {t: per_tenant[t]["submitted"] for t in per_tenant}
    ideal = fractional_fair_shares(
        demands,
        {t: 1.0 for t in demands},
        float(fair["total_goodput"]),
    )
    return sorted(
        t
        for t in demands
        if t != NOISY_TENANT
        and demands[t] > 0
        and ideal[t] >= demands[t] - 1e-9
    )


@pytest.mark.parametrize("seed", [3, 11])
def test_quiet_tenants_isolated_from_noisy_neighbour(seed):
    args = _args(seed)
    lookups, paths = _lookups(args)
    fair = replay_admission(args, lookups, paths, RATE_PER_S, "fair")
    repeat = replay_admission(args, lookups, paths, RATE_PER_S, "fair")
    global_mode = replay_admission(
        args, lookups, paths, RATE_PER_S, "global"
    )

    # Bit-identical counters per seed: same trace + same fault plan →
    # the per-tenant digest (submitted/goodput/sheds/latencies) matches.
    assert fair["digest"] == repeat["digest"]
    assert fair["unaccounted"] == 0
    assert global_mode["unaccounted"] == 0

    quiet = _quiet_tenants(fair)
    assert quiet, "workload produced no quiet tenant — test is vacuous"
    noisy = fair["per_tenant"][NOISY_TENANT]
    assert noisy["shed"] > 0, (
        "the noisy tenant never shed — the run is not contended"
    )

    fair_breaks = []
    global_breaks = []
    for tenant in quiet:
        mine = [r for r in lookups if r.tenant == tenant]
        solo = replay_admission(args, mine, paths, RATE_PER_S, "fair")
        solo_stats = solo["per_tenant"][tenant]
        fair_stats = fair["per_tenant"][tenant]
        global_stats = global_mode["per_tenant"].get(
            tenant, {"goodput": 0}
        )
        # Goodput within 10% of solo; shed rate bounded.
        if fair_stats["goodput"] < 0.9 * solo_stats["goodput"]:
            fair_breaks.append(
                (tenant, fair_stats["goodput"], solo_stats["goodput"])
            )
        assert fair_stats["shed_rate"] <= 0.05, (
            f"quiet tenant {tenant} shed {fair_stats['shed_rate']:.2%} "
            f"under fair sharing"
        )
        # Same latency regime as solo: shared-mode p50 may queue a
        # little, but must not jump an order of magnitude.
        assert fair_stats["p50_ms"] <= max(
            2.0 * solo_stats["p50_ms"], 0.1
        ), (
            f"quiet tenant {tenant} p50 {fair_stats['p50_ms']}ms vs "
            f"solo {solo_stats['p50_ms']}ms"
        )
        if global_stats["goodput"] < 0.9 * solo_stats["goodput"]:
            global_breaks.append(tenant)
    assert not fair_breaks, (
        f"fair sharing broke isolation for quiet tenants: {fair_breaks}"
    )
    # Non-vacuity: the tenant-blind global bucket must fail the same
    # bound, or the comparison proves nothing.
    assert global_breaks, (
        "global bucket kept every quiet tenant within 10% of solo — "
        "the isolation property is vacuously true"
    )


def test_global_mode_shares_pain_proportionally():
    """Sanity on the baseline itself: under the global bucket the noisy
    tenant keeps grabbing tokens (its goodput exceeds its fair-mode
    goodput) — that surplus is exactly what isolation takes back."""
    seed = 3
    args = _args(seed)
    lookups, paths = _lookups(args)
    fair = replay_admission(args, lookups, paths, RATE_PER_S, "fair")
    global_mode = replay_admission(
        args, lookups, paths, RATE_PER_S, "global"
    )
    assert (
        global_mode["per_tenant"][NOISY_TENANT]["goodput"]
        > fair["per_tenant"][NOISY_TENANT]["goodput"]
    )
