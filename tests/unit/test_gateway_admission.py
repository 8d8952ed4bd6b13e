"""Unit tests for gateway admission control (repro.gateway.admission)."""

import random

import pytest

from repro.gateway.admission import (
    DEFAULT_TENANT,
    SHED_DEADLINE,
    FairAdmissionController,
    TokenBucket,
)
from tests._reference_admission import AdmissionController


class TestTokenBucket:
    def test_starts_full_and_refills(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=5.0)
        assert bucket.tokens(0.0) == 5.0
        for _ in range(5):
            assert bucket.take(0.0)
        assert not bucket.take(0.0)
        assert bucket.take(0.1)  # one token refilled

    def test_burst_caps_refill(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=5.0)
        for _ in range(5):
            bucket.take(0.0)
        assert bucket.tokens(100.0) == 5.0

    def test_clock_never_runs_backwards(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=2.0)
        bucket.take(1.0)
        before = bucket.tokens(1.0)
        assert bucket.tokens(0.5) == before  # stale timestamp is a no-op

    def test_take_many_leaves_the_float_of_unit_takes(self):
        rng = random.Random(3)
        for _ in range(200):
            burst = rng.choice([8.0, 800.0, 2.0 ** 53 - 1])
            many = TokenBucket(rate_per_s=rng.random() * 1e3 + 0.1, burst=burst)
            unit = TokenBucket(rate_per_s=many.rate_per_s, burst=burst)
            spent = rng.randrange(int(min(burst, 64)))
            for bucket in (many, unit):
                for _ in range(spent):
                    bucket.take(0.0)
            now = rng.random() * 0.1  # a fractional refill
            count = rng.randrange(int(min(many.tokens(now), 64)) + 1)
            many.take_many(count)
            for _ in range(count):
                assert unit.take(now)
            assert many.tokens(now) == unit.tokens(now)

    def test_burst_keeps_unit_takes_exact(self):
        # From 2**53 on a unit take can round: from 2**53 + 2, two of them
        # leave 2**53 - 1 and one subtraction of 2.0 leaves 2**53.
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=1.0, burst=2.0 ** 53)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=0.0, burst=5.0)
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=1.0, burst=0.5)


class TestAdmissionController:
    def _controller(self, **kwargs):
        defaults = dict(
            rate_per_s=10.0, burst=2.0, queue_capacity=3, queue_deadline_s=1.0
        )
        defaults.update(kwargs)
        return AdmissionController(**defaults)

    def test_admits_within_burst(self):
        ctl = self._controller()
        admitted, shed = ctl.submit_many(["a", "b"], 0.0)
        assert admitted == ["a", "b"] and shed == []

    def test_overflow_queues_then_sheds_explicitly(self):
        ctl = self._controller()
        admitted, shed = ctl.submit_many(list("abcdefg"), 0.0)
        assert admitted == ["a", "b"]          # burst
        assert ctl.queued_items() == ["c", "d", "e"]  # queue capacity 3
        assert shed == ["f", "g"]              # explicit, never silent
        assert ctl.stats.shed_full == 2

    def test_pump_drains_queue_as_tokens_refill(self):
        ctl = self._controller()
        ctl.submit_many(list("abcde"), 0.0)
        admitted, shed = ctl.pump(0.2)  # 2 tokens refilled
        assert admitted == ["c", "d"] and shed == []
        assert ctl.queue_depth == 1

    def test_deadline_sheds_stale_queue_entries(self):
        ctl = self._controller()
        ctl.submit_many(list("abcde"), 0.0)
        admitted, shed = ctl.pump(1.5)  # deadline 1.0 passed for c,d,e
        assert shed == ["c", "d", "e"]
        assert admitted == []
        assert ctl.stats.shed_deadline == 3

    def test_fifo_fairness_queue_before_fresh(self):
        ctl = self._controller()
        ctl.submit_many(list("abcd"), 0.0)  # a,b admitted; c,d queued
        admitted, _ = ctl.submit_many(["e"], 0.2)  # 2 tokens refilled
        # The queued c (older) wins both refilled tokens' first slot;
        # the fresh e falls behind d in the queue.
        assert admitted[:2] == ["c", "d"]
        assert ctl.queued_items() == ["e"]

    def test_reconciliation_invariant(self):
        ctl = self._controller()
        for tick in range(20):
            ctl.submit_many([f"p{tick}.{i}" for i in range(4)], tick * 0.05)
        ctl.pump(10.0)
        stats = ctl.stats
        assert stats.admitted + stats.shed + ctl.queue_depth == stats.submitted
        assert ctl.queue_depth == 0  # everything drained or dead by now

    def test_zero_capacity_queue_sheds_immediately(self):
        ctl = self._controller(queue_capacity=0)
        _, shed = ctl.submit_many(list("abc"), 0.0)
        assert shed == ["c"]
        assert ctl.stats.queued == 0


class TestFairAdmissionController:
    def _controller(self, **kwargs):
        defaults = dict(
            rate_per_s=10.0, burst=2.0, queue_capacity=3, queue_deadline_s=1.0
        )
        defaults.update(kwargs)
        return FairAdmissionController(**defaults)

    def test_unknown_tenant_gets_default_weight(self):
        ctl = self._controller(burst=4.0, queue_capacity=0)
        ctl.set_weight("vip", 1.0 / 3.0)
        # A tenant first seen mid-run is a first-class citizen, and it
        # competes at the default weight 1: four tokens split 3 : 1.
        result = ctl.submit_tick(
            [(t, f"{t}{i}") for i in range(4) for t in ("nobody", "vip")],
            0.0,
        )
        admitted = [tenant for tenant, _ in result.admitted]
        assert admitted.count("nobody") == 3
        assert admitted.count("vip") == 1

    def test_uncontended_tick_updates_credits_as_the_fair_path(self):
        """A tick with no queue and a token per item admits in submission
        order; a demanding tenant's credit takes ``+ float(d) - d``, which
        need not cancel, and an idle one's resets."""
        ctl = self._controller(burst=8.0)
        ctl.submit_tick([("idle", "i0"), ("busy", "b0")], 0.0)
        ctl._tenants["idle"].credit = 0.5
        ctl._tenants["busy"].credit = 0.1
        result = ctl.submit_tick(
            [("busy", "b1"), ("new", "n1"), ("busy", "b2"), ("busy", "b3")], 0.0
        )
        assert result.admitted == [
            ("busy", "b1"), ("new", "n1"), ("busy", "b2"), ("busy", "b3")
        ] and not result.shed
        assert ctl.tenants() == ["busy", "idle", "new"]
        assert ctl._tenants["busy"].credit == 0.1 + 3.0 - 3 != 0.1
        assert ctl._tenants["idle"].credit == 0.0
        assert ctl._tenants["new"].credit == 0.0
        assert ctl.bucket.tokens(0.0) == 2.0
        assert (ctl.stats.submitted, ctl.stats.admitted) == (6, 6)
        assert (
            ctl.tenant_stats("busy").submitted, ctl.tenant_stats("busy").admitted
        ) == (4, 4)

    def test_zero_weight_rejected(self):
        ctl = self._controller()
        with pytest.raises(ValueError):
            ctl.set_weight("t", 0.0)
        with pytest.raises(ValueError):
            ctl.set_weight("t", -1.0)

    def test_deadline_queue_ordering_across_tenants(self):
        """Queued entries drain in global enqueue order across tenants,
        and deadline sheds carry the explicit cause per tenant."""
        ctl = self._controller(queue_capacity=4)
        # Burst 2: a1, b1 admitted; the rest queue interleaved.
        result = ctl.submit_tick(
            [("a", "a1"), ("b", "b1"), ("a", "a2"), ("b", "b2"),
             ("a", "a3"), ("b", "b3")],
            0.0,
        )
        assert result.admitted == [("a", "a1"), ("b", "b1")]
        assert ctl.queued_items() == ["a2", "b2", "a3", "b3"]
        # Two refilled tokens drain the two globally-oldest entries —
        # one per tenant, not two from whichever tenant sorts first.
        drained = ctl.pump(0.2)
        assert drained.admitted == [("a", "a2"), ("b", "b2")]
        # Past the deadline, the stragglers shed with the explicit cause.
        expired = ctl.pump(1.5)
        assert sorted(expired.shed) == [
            ("a", "a3", SHED_DEADLINE),
            ("b", "b3", SHED_DEADLINE),
        ]
        assert ctl.tenant_stats("a").shed_deadline == 1
        assert ctl.tenant_stats("b").shed_deadline == 1
        assert ctl.queue_depth == 0

    def test_single_tenant_matches_legacy_controller(self):
        """With one tenant the fair controller is bit-identical to the
        legacy global bucket — the golden-counter compatibility bar."""
        legacy = AdmissionController(
            rate_per_s=10.0, burst=2.0, queue_capacity=3,
            queue_deadline_s=1.0,
        )
        fair = self._controller()
        rng = random.Random(11)
        now = 0.0
        for tick in range(200):
            now += rng.random() * 0.2
            items = [f"p{tick}.{i}" for i in range(rng.randrange(0, 5))]
            admitted, shed = legacy.submit_many(list(items), now)
            result = fair.submit_tick(
                [(DEFAULT_TENANT, item) for item in items], now
            )
            assert [item for _, item in result.admitted] == admitted
            assert sorted(item for _, item, _ in result.shed) == sorted(
                shed
            )
        assert (
            legacy.stats.submitted,
            legacy.stats.admitted,
            legacy.stats.queued,
            legacy.stats.shed_full,
            legacy.stats.shed_deadline,
        ) == (
            fair.stats.submitted,
            fair.stats.admitted,
            fair.stats.queued,
            fair.stats.shed_full,
            fair.stats.shed_deadline,
        )
        assert legacy.queued_items() == fair.queued_items()

    def test_backlogged_tenant_cannot_crowd_out_another(self):
        """Per-tenant queues: one tenant's backlog fills its own queue
        only; a late-arriving quiet tenant still queues and drains."""
        ctl = self._controller(queue_capacity=2)
        result = ctl.submit_tick(
            [("noisy", f"n{i}") for i in range(8)], 0.0
        )
        assert len(result.admitted) == 2  # burst
        assert ctl.queued_items() == ["n2", "n3"]
        assert len(result.shed) == 4  # noisy's own overflow
        late = ctl.submit_tick([("quiet", "q1")], 0.001)
        assert not late.shed  # the quiet tenant queues despite the flood
        assert ctl.queued_items() == ["n2", "n3", "q1"]
