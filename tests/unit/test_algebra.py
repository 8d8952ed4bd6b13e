"""Unit tests for Bloom filter algebra (paper Section 3.4, Properties 1-3)."""

import pytest

from repro.bloom.algebra import (
    bit_difference,
    bloom_intersection,
    bloom_union,
    bloom_xor,
    needs_update,
)
from repro.bloom.bloom_filter import BloomFilter


def build(items, seed=0):
    bloom = BloomFilter(1024, 5, seed)
    bloom.update(items)
    return bloom


class TestProperty1Union:
    def test_union_equals_filter_of_union(self):
        """Property 1: BF(A) | BF(B) is bit-identical to BF(A ∪ B)."""
        a_items = [f"a{i}" for i in range(30)]
        b_items = [f"b{i}" for i in range(30)]
        union = bloom_union(build(a_items), build(b_items))
        direct = build(a_items + b_items)
        assert union == direct

    def test_union_contains_both_sides(self):
        union = bloom_union(build(["x"]), build(["y"]))
        assert "x" in union and "y" in union

    def test_union_item_count(self):
        assert bloom_union(build(["x"]), build(["y", "z"])).num_items == 3


class TestProperty2Intersection:
    def test_intersection_contains_common_members(self):
        """No false negatives for A ∩ B."""
        common = [f"c{i}" for i in range(20)]
        a = build(common + ["only-a"])
        b = build(common + ["only-b"])
        inter = bloom_intersection(a, b)
        assert all(item in inter for item in common)

    def test_intersection_is_superset_of_direct_filter_bits(self):
        """AND of filters has at least the bits of BF(A ∩ B)."""
        common = [f"c{i}" for i in range(20)]
        a = build(common + [f"a{i}" for i in range(20)])
        b = build(common + [f"b{i}" for i in range(20)])
        inter = bloom_intersection(a, b)
        direct = build(common)
        assert direct.bits & ~inter.bits == 0


class TestProperty3Xor:
    def test_xor_marks_differing_positions(self):
        a = build(["x"])
        b = build(["x", "y"])
        xor = bloom_xor(a, b)
        assert xor.bits == (a.bits ^ b.bits)

    def test_xor_of_identical_filters_is_empty(self):
        a = build(["p", "q"])
        b = build(["p", "q"])
        assert bloom_xor(a, b).bits == 0


class TestBitDifference:
    def test_zero_for_identical(self):
        assert bit_difference(build(["x"]), build(["x"])) == 0

    def test_counts_hamming_distance(self):
        a = build([])
        b = build(["new"])
        assert bit_difference(a, b) == bin(b.bits).count("1")

    def test_grows_with_divergence(self):
        base = build([f"f{i}" for i in range(10)])
        drift_small = build([f"f{i}" for i in range(11)])
        drift_large = build([f"f{i}" for i in range(40)])
        assert bit_difference(base, drift_small) <= bit_difference(
            base, drift_large
        )


class TestUpdateRule:
    def test_needs_update_threshold(self):
        local = build([f"f{i}" for i in range(20)])
        replica = build([f"f{i}" for i in range(10)])
        difference = bit_difference(local, replica)
        assert needs_update(local, replica, difference - 1)
        assert not needs_update(local, replica, difference)

    def test_fresh_replica_never_needs_update(self):
        local = build(["a"])
        assert not needs_update(local, local.copy(), 0)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            needs_update(build([]), build([]), -1)


class TestIntersectionAnalysis:
    """Property 2: BF(A) & BF(B) against the directly built BF(A∩B)."""

    def test_and_filter_fpr_at_least_direct(self):
        """Empirically: the AND approximation never beats the direct
        intersection filter on false positives."""
        common = [f"c{i}" for i in range(40)]
        a = build(common + [f"a{i}" for i in range(120)])
        b = build(common + [f"b{i}" for i in range(120)])
        and_filter = bloom_intersection(a, b)
        direct = build(common)
        probes = [f"__fpr_probe_{i}" for i in range(3_000)]
        assert sum(p in and_filter for p in probes) >= sum(
            p in direct for p in probes
        )

    def test_no_exclusive_items_means_equal_filters(self):
        """A ⊆ B: the AND equals BF(A) exactly — zero excess."""
        a_items = [f"s{i}" for i in range(30)]
        b_items = a_items + [f"extra{i}" for i in range(0)]
        a = build(a_items)
        b = build(b_items)
        assert bloom_intersection(a, b) == a


class TestIncompatibility:
    @pytest.mark.parametrize(
        "op", [bloom_union, bloom_intersection, bloom_xor, bit_difference]
    )
    def test_incompatible_filters_rejected(self, op):
        with pytest.raises(ValueError):
            op(build([], seed=0), build([], seed=1))
