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

A second suite holds each tick to a ledger the test keeps itself, over
schedules with a queue (capacity 3, deadlines), ticks that alternate
between over- and under-subscribed, weight changes and a tenant that
joins mid-run.  After every tick:

- **credits** — each tenant's credit is the clamped running sum of
  ``fractional_fair_shares``' ideal minus what it was granted, reset to
  0.0 while it is idle, and the grant is ``weighted_max_min``'s for
  those credits;
- **service order** — queued entries oldest-first, then fresh ones in
  submission order, and sheds (deadline, then queue-full) as expected;
- **tokens and tallies** — the bucket's float and every per-tenant and
  aggregate stat.

Global mode is held to the same ledger as one tenant-blind FIFO.  Two
mutants planted in the uncontended pass of ``submit_tick`` (an idle
tenant keeps its credit; fresh items are admitted while queued ones
wait) must each fail some seed.

On failure the harness shrinks the tick sequence to a minimal
still-failing subsequence before asserting, so the report is actionable.
"""

import inspect
import random
import textwrap
from collections import Counter

import pytest

from repro.gateway import admission
from repro.gateway.admission import (
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    FairAdmissionController,
    fractional_fair_shares,
    weighted_max_min,
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


# ----------------------------------------------------------------------
# The ledger oracle: credits, service order, tokens and tallies
# ----------------------------------------------------------------------

#: Tenants of the ledger schedules; ``late`` first appears mid-run.
LEDGER_TENANTS = ("a", "b", "c")
LATE_TENANT = "late"
LEDGER_WEIGHTS = (0.5, 1.0, 2.0, 3.0)
LEDGER_RATE = 40.0
LEDGER_BURST = 8.0
LEDGER_CAPACITY = 3
LEDGER_DEADLINE_S = 0.3


def _ledger_schedule(seed, length=60):
    """Seeded ops: ticks that alternate between over-subscribed (up to 16
    items a short gap after the last) and under-subscribed (at most three
    items, after a gap that may outlast the queue deadline), with weight
    changes between them.  ``late`` joins in the second half.  Each op
    carries its own timestamp, so a subsequence replays alike."""
    rng = random.Random(seed)
    ops = []
    now = 0.0
    for index in range(length):
        tenants = LEDGER_TENANTS + ((LATE_TENANT,) if index >= length // 2 else ())
        if rng.random() < 0.15:
            ops.append(("weight", rng.choice(tenants), rng.choice(LEDGER_WEIGHTS)))
        if index % 2 == 0:
            now += 0.01 + rng.random() * 0.05
            count = rng.randint(6, 16)
        else:
            now += 0.05 + rng.random() * 0.5
            count = rng.randint(0, 3)
        items = tuple(
            (rng.choice(tenants), f"{seed}.{index}.{i}") for i in range(count)
        )
        ops.append(("tick", round(now, 6), items))
    return ops


class _Ledger:
    """The test's own model of a fair (or global) controller: its queues,
    bucket, credits and tallies, kept from the allocators' definitions."""

    def __init__(self, per_tenant):
        self.per_tenant = per_tenant
        self.tokens = LEDGER_BURST
        self.last = 0.0
        self.weights = {}
        self.credits = {}
        self.queues = {}
        self.seq = 0
        self.tallies = {}
        self.total = Counter()

    def register(self, tenant):
        if tenant not in self.weights:
            self.weights[tenant] = 1.0
            self.credits[tenant] = 0.0
            self.queues[tenant] = []
            self.tallies[tenant] = Counter()

    def set_weight(self, tenant, weight):
        self.register(tenant)
        self.weights[tenant] = weight

    def tally(self, tenant, key):
        self.tallies[tenant][key] += 1
        self.total[key] += 1

    def tick(self, items, now):
        """``(admitted, shed)`` the tick must produce; updates the model."""
        if now > self.last:
            self.tokens = min(
                LEDGER_BURST, self.tokens + (now - self.last) * LEDGER_RATE
            )
            self.last = now
        shed = []
        for tenant in sorted(self.queues):
            queue = self.queues[tenant]
            while queue and queue[0][0] <= now:
                shed.append((tenant, queue.pop(0)[2], SHED_DEADLINE))
                self.tally(tenant, "shed_deadline")
        for tenant, _ in items:
            self.register(tenant)
            self.tally(tenant, "submitted")
        available = int(self.tokens)
        queued = sorted(
            (seq, tenant)
            for tenant, queue in self.queues.items()
            for _, seq, _ in queue
        )
        demands = Counter(tenant for _, tenant in queued)
        demands.update(tenant for tenant, _ in items)
        if self.per_tenant:
            weights = {t: self.weights[t] for t in demands}
            budget = weighted_max_min(
                demands, weights, available, {t: self.credits[t] for t in demands}
            )
            ideal = fractional_fair_shares(demands, weights, available)
            for tenant in self.credits:
                self.credits[tenant] = (
                    max(-8.0, min(8.0, self.credits[tenant] + ideal[tenant] - budget[tenant]))
                    if tenant in demands
                    else 0.0
                )
        else:
            budget = {None: available}  # one tenant-blind FIFO

        def grant(tenant):
            key = tenant if self.per_tenant else None
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                return True
            return False

        admitted = []
        # Queued entries oldest-first, then fresh ones in submission order.
        for seq, tenant in queued:
            if grant(tenant):
                admitted.append((tenant, self.queues[tenant].pop(0)[2]))
        leftover = []
        for tenant, item in items:
            if grant(tenant):
                admitted.append((tenant, item))
            else:
                leftover.append((tenant, item))
        for tenant, _ in admitted:
            self.tokens -= 1.0
            self.tally(tenant, "admitted")
        for tenant, item in leftover:
            if len(self.queues[tenant]) < LEDGER_CAPACITY:
                self.queues[tenant].append((now + LEDGER_DEADLINE_S, self.seq, item))
                self.seq += 1
                self.tally(tenant, "queued")
            else:
                shed.append((tenant, item, SHED_QUEUE_FULL))
                self.tally(tenant, "shed_full")
        return admitted, shed


STAT_KEYS = ("submitted", "admitted", "queued", "shed_full", "shed_deadline")


def _stats_of(stats):
    return {key: getattr(stats, key) for key in STAT_KEYS}


def _run_ledger(ops, per_tenant=True):
    """Replay ``ops`` through a controller and the ledger side by side;
    a failure description or ``None``."""
    controller = FairAdmissionController(
        rate_per_s=LEDGER_RATE,
        burst=LEDGER_BURST,
        queue_capacity=LEDGER_CAPACITY,
        queue_deadline_s=LEDGER_DEADLINE_S,
        per_tenant=per_tenant,
    )
    ledger = _Ledger(per_tenant)

    def step(op):
        if op[0] == "weight":
            _, tenant, weight = op
            controller.set_weight(tenant, weight)
            ledger.set_weight(tenant, weight)
            return None
        _, now, items = op
        result = controller.submit_tick(list(items), now)
        admitted, shed = ledger.tick(items, now)
        if result.admitted != admitted:
            return f"admitted {result.admitted}, the ledger says {admitted}"
        if result.shed != shed:
            return f"shed {result.shed}, the ledger says {shed}"
        if controller.bucket.tokens(now) != ledger.tokens:
            return f"tokens {controller.bucket.tokens(now)!r}, the ledger says {ledger.tokens!r}"
        if controller.tenants() != sorted(ledger.credits):
            return f"tenants {controller.tenants()}, the ledger says {sorted(ledger.credits)}"
        for tenant, credit in ledger.credits.items():
            if controller._tenants[tenant].credit != credit:
                return (
                    f"{tenant}'s credit {controller._tenants[tenant].credit!r}, "
                    f"the ledger says {credit!r}"
                )
            expected = {key: ledger.tallies[tenant][key] for key in STAT_KEYS}
            if _stats_of(controller.tenant_stats(tenant)) != expected:
                return f"{tenant}'s stats {controller.tenant_stats(tenant)}, the ledger says {expected}"
        expected = {key: ledger.total[key] for key in STAT_KEYS}
        if _stats_of(controller.stats) != expected:
            return f"stats {controller.stats}, the ledger says {expected}"
        return None

    return replay(ops, step)


@pytest.mark.parametrize("seed", SEEDS)
def test_credits_order_and_tallies_follow_the_ledger(seed):
    check(seed, _ledger_schedule(seed), _run_ledger)


@pytest.mark.parametrize("seed", range(8))
def test_global_mode_follows_the_fifo_ledger(seed):
    check(seed, _ledger_schedule(seed), lambda ops: _run_ledger(ops, per_tenant=False))


def test_the_ledger_schedules_reach_every_case():
    """Non-vacuity: the schedules hold uncontended ticks (no queued entry,
    a token per item) that find an idle tenant holding a credit and that
    move a demanding tenant's credit (``credit + float(d) - d``), ticks
    with a queue and a token for every fresh item, and sheds of both
    causes."""
    seen = Counter()
    for seed in SEEDS:
        ledger = _Ledger(per_tenant=True)
        for op in _ledger_schedule(seed):
            if op[0] == "weight":
                ledger.set_weight(*op[1:])
                continue
            _, now, items = op
            refilled = ledger.tokens + max(0.0, now - ledger.last) * LEDGER_RATE
            enough = min(LEDGER_BURST, refilled) >= len(items)
            queued = any(ledger.queues.values())
            demanding = {tenant for tenant, _ in items}
            before = dict(ledger.credits)
            _, shed = ledger.tick(items, now)
            seen.update(cause for _, _, cause in shed)
            if enough and queued and items:
                seen["queued, a token per fresh item"] += 1
            if enough and not queued:
                seen["uncontended"] += 1
                if any(c for t, c in before.items() if t not in demanding):
                    seen["uncontended, idle credit"] += 1
                if any(ledger.credits[t] != c for t, c in before.items() if t in demanding):
                    seen["uncontended, credit moved"] += 1
    for case in (
        "uncontended", "uncontended, idle credit", "uncontended, credit moved",
        "queued, a token per fresh item", SHED_DEADLINE, SHED_QUEUE_FULL,
    ):
        assert seen[case] > 0, (case, seen)


def _plant(monkeypatch, old, new):
    """Replace ``old`` by ``new`` in ``submit_tick``'s source, once."""
    source = textwrap.dedent(inspect.getsource(FairAdmissionController.submit_tick))
    assert source.count(old) == 1, old
    namespace = {}
    exec(compile(source.replace(old, new), admission.__file__, "exec"), vars(admission), namespace)
    monkeypatch.setattr(FairAdmissionController, "submit_tick", namespace["submit_tick"])


@pytest.mark.parametrize(
    "old, new",
    [
        # The uncontended pass keeps an idle tenant's credit.
        ("state.credit = 0.0 if count is None", "state.credit = state.credit if count is None"),
        # It admits fresh items while queued ones wait.
        ("len(items) and not self.queue_depth:", "len(items):"),
    ],
    ids=["idle-credit-kept", "fresh-ahead-of-queued"],
)
def test_the_ledger_kills_a_planted_mutant(monkeypatch, old, new):
    _plant(monkeypatch, old, new)
    assert any(_run_ledger(_ledger_schedule(seed)) is not None for seed in SEEDS)
