"""Property-based tests for Bloom filters and their algebra."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.algebra import (
    bit_difference,
    bloom_intersection,
    bloom_union,
    bloom_xor,
)
from repro.bloom.bloom_filter import BloomFilter, popcount

items_strategy = st.lists(
    st.text(min_size=1, max_size=24), max_size=60, unique=True
)


def build(items, seed=0):
    bloom = BloomFilter(1024, 5, seed)
    bloom.update(items)
    return bloom


class TestNoFalseNegatives:
    @given(items=items_strategy)
    def test_every_inserted_item_is_found(self, items):
        bloom = build(items)
        assert all(bloom.query(item) for item in items)

    @given(items=items_strategy)
    def test_replica_agrees_with_original(self, items):
        bloom = build(items)
        replica = bloom.copy()
        assert all(replica.query(item) for item in items)
        assert replica == bloom

    @given(items=items_strategy)
    def test_serialization_round_trip(self, items):
        bloom = build(items)
        assert BloomFilter.from_bytes(bloom.to_bytes()) == bloom


class TestAlgebraLaws:
    @given(a=items_strategy, b=items_strategy)
    def test_union_is_exact(self, a, b):
        """Property 1: OR of filters equals the filter of the union."""
        assert bloom_union(build(a), build(b)) == build(list(set(a) | set(b)))

    @given(a=items_strategy, b=items_strategy)
    def test_union_commutes(self, a, b):
        assert bloom_union(build(a), build(b)) == bloom_union(build(b), build(a))

    @given(a=items_strategy, b=items_strategy, c=items_strategy)
    def test_union_associates(self, a, b, c):
        left = bloom_union(bloom_union(build(a), build(b)), build(c))
        right = bloom_union(build(a), bloom_union(build(b), build(c)))
        assert left == right

    @given(a=items_strategy, b=items_strategy)
    def test_intersection_has_no_false_negatives(self, a, b):
        """Property 2: every common member is found in the AND filter."""
        inter = bloom_intersection(build(a), build(b))
        for item in set(a) & set(b):
            assert inter.query(item)

    @given(a=items_strategy, b=items_strategy)
    def test_intersection_bits_superset_of_direct(self, a, b):
        inter = bloom_intersection(build(a), build(b))
        direct = build(list(set(a) & set(b)))
        assert direct.bits & ~inter.bits == 0

    @given(a=items_strategy, b=items_strategy)
    def test_xor_consistent_with_bitvectors(self, a, b):
        fa, fb = build(a), build(b)
        assert bloom_xor(fa, fb).bits == (fa.bits ^ fb.bits)

    @given(a=items_strategy)
    def test_xor_self_is_empty(self, a):
        assert bloom_xor(build(a), build(a)).bits == 0

    @given(a=items_strategy, b=items_strategy)
    def test_bit_difference_is_metric_like(self, a, b):
        fa, fb = build(a), build(b)
        assert bit_difference(fa, fb) == bit_difference(fb, fa)
        assert bit_difference(fa, fa) == 0

    @given(a=items_strategy, b=items_strategy, c=items_strategy)
    def test_bit_difference_triangle_inequality(self, a, b, c):
        fa, fb, fc = build(a), build(b), build(c)
        assert bit_difference(fa, fc) <= (
            bit_difference(fa, fb) + bit_difference(fb, fc)
        )


class TestPopcount:
    @given(value=st.integers(min_value=0, max_value=(1 << 300) - 1))
    def test_popcount_matches_set_bits(self, value):
        """The one popcount (``int.bit_count`` or its 3.9 fallback) over
        ints wider than a machine word."""
        assert popcount(value) == bin(value).count("1")
