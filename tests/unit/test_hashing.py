"""Unit tests for the double-hashing index family."""

import pytest

from repro.bloom.hashing import HashFamily


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            HashFamily(0, 100)
        with pytest.raises(ValueError):
            HashFamily(4, 0)

    def test_parameters_round_trip(self):
        family = HashFamily(5, 1024, seed=9)
        assert family.parameters() == (5, 1024, 9)


class TestIndices:
    def test_count_and_range(self):
        family = HashFamily(7, 128)
        indices = family.cells("/some/path")
        assert len(indices) == 7
        assert all(0 <= i < 128 for i in indices)

    def test_deterministic(self):
        family = HashFamily(4, 256, seed=3)
        assert family.cells("x") == family.cells("x")

    def test_equal_families_agree(self):
        a = HashFamily(4, 256, seed=3)
        b = HashFamily(4, 256, seed=3)
        assert a.cells("/p/q") == b.cells("/p/q")

    def test_different_seeds_disagree(self):
        a = HashFamily(4, 1 << 20, seed=1)
        b = HashFamily(4, 1 << 20, seed=2)
        assert a.cells("/p/q") != b.cells("/p/q")

    def test_accepts_str_bytes_int(self):
        family = HashFamily(3, 64)
        family.cells("abc")
        family.cells(b"abc")
        family.cells(12345)
        family.cells(-7)

    def test_str_and_equivalent_bytes_agree(self):
        family = HashFamily(3, 64)
        assert family.cells("abc") == family.cells(b"abc")

    def test_rejects_other_types(self):
        family = HashFamily(3, 64)
        with pytest.raises(TypeError):
            family.cells(1.5)  # type: ignore[arg-type]

    def test_distribution_covers_space(self):
        """Indices from many items should spread over most of the space."""
        family = HashFamily(4, 64)
        seen = set()
        for i in range(200):
            seen.update(family.cells(f"item-{i}"))
        assert len(seen) > 56  # nearly all 64 positions touched


class TestCompatibility:
    def test_is_compatible(self):
        assert HashFamily(4, 64, 1).is_compatible(HashFamily(4, 64, 1))
        assert not HashFamily(4, 64, 1).is_compatible(HashFamily(4, 64, 2))
        assert not HashFamily(4, 64, 1).is_compatible(HashFamily(5, 64, 1))
        assert not HashFamily(4, 64, 1).is_compatible(HashFamily(4, 65, 1))

    def test_equality_and_hash(self):
        a = HashFamily(4, 64, 1)
        b = HashFamily(4, 64, 1)
        assert a == b
        assert hash(a) == hash(b)
