"""Unit tests for the stale-replica false-rate analysis."""

import pytest

from repro.bloom.bloom_filter import BloomFilter
from repro.bloom.staleness import (
    expected_l4_escape_rate,
    measure_staleness,
    stale_replica_rates,
)


class TestAnalyticRates:
    def test_fresh_additions_mostly_missed(self):
        rates = stale_replica_rates(
            num_bits=16_000, num_hashes=11,
            items_at_snapshot=1_000, added_since=50, deleted_since=0,
        )
        assert rates.false_negative_rate > 0.99
        assert rates.base_false_positive_rate < 0.01

    def test_deleted_items_always_hit(self):
        rates = stale_replica_rates(
            num_bits=8_000, num_hashes=6,
            items_at_snapshot=1_000, added_since=0, deleted_since=100,
        )
        assert rates.false_positive_deleted == 1.0

    def test_denser_filter_weaker_false_negative(self):
        """A fuller filter collides more, so stale misses are less certain."""
        sparse = stale_replica_rates(16_000, 11, 100, 10, 0)
        dense = stale_replica_rates(16_000, 11, 2_000, 10, 0)
        assert dense.false_negative_rate < sparse.false_negative_rate

    def test_validation(self):
        with pytest.raises(ValueError):
            stale_replica_rates(100, 4, 10, added_since=-1, deleted_since=0)
        with pytest.raises(ValueError):
            stale_replica_rates(100, 4, 10, added_since=0, deleted_since=11)


class TestEmpiricalAgreement:
    def test_added_items_missed_by_replica(self):
        """Live filter vs. a stale snapshot: analytic FN rate holds."""
        live = BloomFilter(16_000, 11, seed=1)
        live.update(f"/old/f{i}" for i in range(1_000))
        replica = live.copy()
        fresh = [f"/fresh/f{i}" for i in range(200)]
        live.update(fresh)
        missed = sum(1 for path in fresh if not replica.query(path))
        rates = stale_replica_rates(16_000, 11, 1_000, 200, 0)
        assert missed / len(fresh) == pytest.approx(
            rates.false_negative_rate, abs=0.05
        )

    def test_replica_still_claims_everything_it_snapshot(self):
        live = BloomFilter(8_000, 6, seed=2)
        items = [f"/del/f{i}" for i in range(500)]
        live.update(items)
        replica = live.copy()
        # "Delete" half the items (plain filters cannot clear bits).
        assert all(replica.query(path) for path in items)


class TestEscapeRateModel:
    def test_zero_fresh_queries_zero_escapes(self):
        assert expected_l4_escape_rate(0.0, 0.2) == 0.0

    def test_full_coverage_zero_escapes(self):
        assert expected_l4_escape_rate(0.5, 1.0) == 0.0

    def test_matches_fig13_form(self):
        # 4% fresh-file queries, M/N = 6/30 coverage.
        assert expected_l4_escape_rate(0.04, 0.2) == pytest.approx(0.032)

    def test_escape_grows_as_coverage_shrinks(self):
        # Larger N at fixed M -> lower coverage -> more L4 (Figure 13).
        small_n = expected_l4_escape_rate(0.04, 6 / 30)
        large_n = expected_l4_escape_rate(0.04, 9 / 100)
        assert large_n > small_n

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_l4_escape_rate(1.5, 0.5)
        with pytest.raises(ValueError):
            expected_l4_escape_rate(0.5, -0.1)


class TestMeasureStaleness:
    def test_identical_filters_zero_drift(self):
        bloom = BloomFilter(4_096, 6)
        bloom.update(f"/m/f{i}" for i in range(100))
        assert measure_staleness(bloom, bloom.copy()) == 0.0

    def test_drift_grows_with_divergence(self):
        base = BloomFilter(4_096, 6)
        base.update(f"/m/f{i}" for i in range(100))
        slightly = base.copy()
        heavily = base.copy()
        base_small = base.copy()
        base_small.update(f"/new/f{i}" for i in range(20))
        base_large = base.copy()
        base_large.update(f"/new/f{i}" for i in range(800))
        assert measure_staleness(base_large, heavily) >= measure_staleness(
            base_small, slightly
        )

    def test_incompatible_rejected(self):
        with pytest.raises(ValueError):
            measure_staleness(BloomFilter(64, 2, 0), BloomFilter(64, 2, 1))
