"""Unit tests for the standard Bloom filter."""

import pytest

from repro.bloom.bloom_filter import BloomFilter


class TestBasics:
    def test_no_false_negatives(self):
        bloom = BloomFilter(1024, 6)
        items = [f"/a/b/file{i}" for i in range(100)]
        bloom.update(items)
        assert all(item in bloom for item in items)

    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter(1024, 6)
        assert "/x" not in bloom

    def test_num_items_counts_adds(self):
        bloom = BloomFilter(256, 4)
        bloom.add("a")
        bloom.add("a")
        assert bloom.num_items == 2

    def test_clear(self):
        bloom = BloomFilter(256, 4)
        bloom.add("a")
        bloom.clear()
        assert "a" not in bloom
        assert bloom.num_items == 0
        assert bloom.fill_ratio() == 0.0

    def test_low_false_positive_rate_at_design_point(self):
        """At 16 bits/item the measured FPR must be well under 1%."""
        bloom = BloomFilter.with_capacity(500, bits_per_item=16.0)
        for i in range(500):
            bloom.add(f"member-{i}")
        false_hits = sum(
            1 for i in range(5_000) if bloom.query(f"nonmember-{i}")
        )
        assert false_hits / 5_000 < 0.01

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(BloomFilter(64, 2))


class TestConstructors:
    def test_with_capacity_uses_optimal_k(self):
        bloom = BloomFilter.with_capacity(100, bits_per_item=8.0)
        assert bloom.num_bits == 800
        assert bloom.num_hashes == 6  # round(8 ln 2)

    def test_with_capacity_rejects_bad_args(self):
        with pytest.raises(ValueError):
            BloomFilter.with_capacity(0)
        with pytest.raises(ValueError):
            BloomFilter.with_capacity(10, bits_per_item=0)


class TestCompatibilityAndEquality:
    def test_compatible_same_geometry(self):
        assert BloomFilter(256, 4, 1).is_compatible(BloomFilter(256, 4, 1))
        assert not BloomFilter(256, 4, 1).is_compatible(BloomFilter(256, 4, 2))
        assert not BloomFilter(256, 4).is_compatible(BloomFilter(128, 4))

    def test_equality_is_bitwise(self):
        a = BloomFilter(256, 4)
        b = BloomFilter(256, 4)
        a.add("x")
        assert a != b
        b.add("x")
        assert a == b

    def test_replica_answers_identically(self):
        """A copy must answer every query exactly like the original."""
        original = BloomFilter(512, 5, seed=3)
        original.update(f"item{i}" for i in range(50))
        replica = original.copy()
        for i in range(200):
            probe = f"probe{i}"
            assert original.query(probe) == replica.query(probe)

    def test_copy_is_independent(self):
        original = BloomFilter(256, 4)
        replica = original.copy()
        replica.add("later")
        assert "later" not in original


class TestEstimates:
    def test_fill_ratio_close_to_expectation(self):
        bloom = BloomFilter(2048, 6)
        bloom.update(str(i) for i in range(200))
        import math

        expected = 1 - math.exp(-6 * 200 / 2048)
        assert bloom.fill_ratio() == pytest.approx(expected, rel=0.15)

    def test_size_bytes(self):
        assert BloomFilter(1024, 4).size_bytes() == 128
        assert BloomFilter(1000, 4).size_bytes() == 125


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        bloom = BloomFilter(777, 5, seed=-3)
        bloom.update(f"f{i}" for i in range(30))
        restored = BloomFilter.from_bytes(bloom.to_bytes())
        assert restored == bloom
        assert restored.num_items == 30
        assert restored.seed == -3
        assert all(restored.query(f"f{i}") for i in range(30))

    def test_truncated_payload_raises(self):
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(b"short")

    def test_wrong_payload_length_raises(self):
        raw = BloomFilter(29, 3).to_bytes()
        with pytest.raises(ValueError, match="expected 4 for 29 bits"):
            BloomFilter.from_bytes(raw[:-1])
        with pytest.raises(ValueError, match="expected 4 for 29 bits"):
            BloomFilter.from_bytes(raw + b"\x00")


WORD_EDGES = [8, 9, 63, 64, 65]


class TestBitLayout:
    """A filter's bits are one int: bit ``i`` of the filter is bit ``i`` of
    ``bits``, and byte ``i >> 3``, position ``i & 7`` of the payload."""

    @pytest.mark.parametrize("num_bits", WORD_EDGES)
    def test_every_bit_individually_addressable(self, num_bits):
        bloom = BloomFilter(num_bits, 2)
        for index in range(num_bits):
            bloom._bits = 1 << index
            payload = bloom.to_bytes()[28:]
            assert len(payload) == (num_bits + 7) // 8
            assert [
                i for i in range(num_bits) if payload[i >> 3] & (1 << (i & 7))
            ] == [index]

    @pytest.mark.parametrize("num_bits", WORD_EDGES)
    def test_added_items_land_at_their_indices(self, num_bits):
        bloom = BloomFilter(num_bits, 3, seed=5)
        expected = set()
        for i in range(6):
            bloom.add(f"/f{i}")
            expected.update(bloom.hash_family.cells(f"/f{i}"))
        payload = bloom.to_bytes()[28:]
        assert {
            i for i in range(num_bits) if payload[i >> 3] & (1 << (i & 7))
        } == expected
        assert bloom.bits == sum(1 << i for i in expected)
        assert bloom.fill_ratio() == len(expected) / num_bits

    @pytest.mark.parametrize("num_bits", WORD_EDGES)
    def test_top_bit_round_trips_through_bytes(self, num_bits):
        bloom = BloomFilter(num_bits, 2)
        bloom._bits = 1 << (num_bits - 1) | 1
        restored = BloomFilter.from_bytes(bloom.to_bytes())
        assert restored.bits == bloom.bits
        assert restored == bloom

    def test_copied_bits_are_independent(self):
        original = BloomFilter(16, 2)
        original._bits = 1 << 1
        clone = original.copy()
        clone.add("later")
        original.add("earlier")
        assert clone.bits & (1 << 1)
        assert clone.bits == 1 << 1 | sum(
            1 << i for i in clone.hash_family.cells("later")
        )
        assert original.bits == 1 << 1 | sum(
            1 << i for i in original.hash_family.cells("earlier")
        )

    def test_num_bits_is_the_hash_family_s(self):
        for num_bits in WORD_EDGES:
            bloom = BloomFilter(num_bits, 4)
            assert bloom.num_bits == bloom.hash_family.num_bits == num_bits
            assert BloomFilter.from_bytes(bloom.to_bytes()).num_bits == num_bits
        with pytest.raises(ValueError):
            BloomFilter(0, 4)
