"""Unit tests for the counting Bloom filter."""

import pytest

from repro.bloom import counting
from repro.bloom.counting import CountingBloomFilter


class TestBasics:
    def test_add_query(self):
        cbf = CountingBloomFilter(256, 4)
        cbf.add("x")
        assert "x" in cbf
        assert cbf.num_items == 1

    def test_remove_restores_absence(self):
        cbf = CountingBloomFilter(256, 4)
        cbf.add("x")
        cbf.remove("x")
        assert "x" not in cbf
        assert cbf.num_items == 0

    def test_remove_keeps_other_items(self):
        cbf = CountingBloomFilter(1024, 4)
        for i in range(50):
            cbf.add(f"keep{i}")
        cbf.add("victim")
        cbf.remove("victim")
        assert all(cbf.query(f"keep{i}") for i in range(50))

    def test_remove_absent_raises(self):
        cbf = CountingBloomFilter(256, 4)
        with pytest.raises(KeyError):
            cbf.remove("ghost")

    def test_discard_returns_false_for_absent(self):
        cbf = CountingBloomFilter(256, 4)
        assert cbf.discard("ghost") is False
        cbf.add("x")
        assert cbf.discard("x") is True

    def test_double_add_needs_double_remove(self):
        cbf = CountingBloomFilter(256, 4)
        cbf.add("x")
        cbf.add("x")
        cbf.remove("x")
        assert "x" in cbf
        cbf.remove("x")
        assert "x" not in cbf

    def test_clear(self):
        cbf = CountingBloomFilter(128, 4)
        cbf.update(["a", "b"])
        cbf.clear()
        assert "a" not in cbf and cbf.num_items == 0

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            CountingBloomFilter(0, 4)


class TestCounters:
    def test_count_estimate_upper_bounds_truth(self):
        cbf = CountingBloomFilter(512, 4)
        for _ in range(3):
            cbf.add("multi")
        assert cbf.count_estimate("multi") >= 3

    def test_saturation_does_not_false_negative(self, monkeypatch):
        """Saturated counters must stay saturated through removals."""
        monkeypatch.setattr(counting, "COUNTER_BITS", 2)
        cbf = CountingBloomFilter(8, 2)  # max count 3
        for i in range(40):
            cbf.add(f"i{i}")  # guaranteed saturation on 8 counters
        cbf.discard("i0")
        # Every inserted item must still be reported present.
        assert all(cbf.query(f"i{i}") for i in range(1, 40))

    def test_fill_ratio(self):
        cbf = CountingBloomFilter(64, 2)
        assert cbf.fill_ratio() == 0.0
        cbf.add("a")
        assert 0 < cbf.fill_ratio() <= 2 / 64


class TestConversions:
    def test_to_bloom_filter_equivalent_membership(self):
        cbf = CountingBloomFilter(512, 4, seed=2)
        items = [f"p{i}" for i in range(40)]
        cbf.update(items)
        bloom = cbf.to_bloom_filter()
        for i in range(200):
            probe = f"probe{i}"
            assert bloom.query(probe) == cbf.query(probe)
        assert all(bloom.query(item) for item in items)

    def test_copy_independent(self):
        cbf = CountingBloomFilter(128, 4)
        cbf.add("a")
        clone = cbf.copy()
        clone.remove("a")
        assert "a" in cbf
        assert "a" not in clone

    def test_compatibility(self):
        a = CountingBloomFilter(128, 4, seed=1)
        b = CountingBloomFilter(128, 4, seed=1)
        c = CountingBloomFilter(128, 4, seed=9)
        assert a.is_compatible(b)
        assert not a.is_compatible(c)

    def test_size_bytes_positive(self):
        assert CountingBloomFilter(128, 4).size_bytes() > 0


class TestCountersAreTheOnlyState:
    """``query`` and the packed forms are read off the counters when asked
    for; nothing is kept beside them that could disagree."""

    #: (cells, hashes, counter_bits): 6 hashes over 4 or 5 cells repeat an
    #: index within one item; 1- and 2-bit counters saturate at once.
    CORNERS = [(4, 6, 1), (5, 6, 2), (8, 3, 1), (64, 3, 4), (256, 4, 4)]

    def _script(self, cbf):
        """Adds past saturation, then removals (some of absent items), with
        a look at the filter after every step."""
        items = [f"/f/{i}" for i in range(12)]
        for _ in range(cbf.max_count + 2):
            for item in items:
                cbf.add(item)
                yield
        for item in items + ["/absent/1", "/absent/2"] + items:
            cbf.discard(item)
            yield

    @pytest.mark.parametrize("cells, hashes, counter_bits", CORNERS)
    def test_query_is_every_counter_nonzero(
        self, cells, hashes, counter_bits, monkeypatch
    ):
        monkeypatch.setattr(counting, "COUNTER_BITS", counter_bits)
        cbf = CountingBloomFilter(cells, hashes)
        probes = [f"/f/{i}" for i in range(12)] + [f"/q/{i}" for i in range(40)]
        repeats = 0
        for _ in self._script(cbf):
            counters = cbf.counters()
            for item in probes:
                indices = cbf.hash_family.indices(item)
                repeats += len(set(indices)) < len(indices)
                assert cbf.query(item) == all(counters[i] > 0 for i in indices)
                assert (item in cbf) == cbf.query(item)
        assert max(cbf.counters()) <= cbf.max_count
        if hashes > cells:
            assert repeats

    @pytest.mark.parametrize("cells, hashes, counter_bits", CORNERS)
    def test_packed_forms_are_the_counters_cell_by_cell(
        self, cells, hashes, counter_bits, monkeypatch
    ):
        monkeypatch.setattr(counting, "COUNTER_BITS", counter_bits)
        cbf = CountingBloomFilter(cells, hashes)
        saturated = False
        for _ in self._script(cbf):
            counters = cbf.counters()
            saturated |= cbf.max_count in counters
            packed = cbf.nonzero_value
            bloom = cbf.to_bloom_filter()
            assert packed >> cells == 0
            for cell, count in enumerate(counters):
                assert bool(packed >> cell & 1) == (count > 0)
                assert bool(bloom.bits >> cell & 1) == (count > 0)
            assert bloom.num_items == cbf.num_items
            assert cbf.fill_ratio() == bin(packed).count("1") / cells
        assert saturated


class TestTypedStorage:
    """Counters live in a ``bytearray``."""

    def test_narrow_counters_saturate_without_overflowing_their_byte(
        self, monkeypatch
    ):
        monkeypatch.setattr(counting, "COUNTER_BITS", 8)
        cbf = CountingBloomFilter(8, 1)
        for _ in range(300):
            cbf.add("x")
        assert max(cbf.counters()) == 255

    def test_clear_zeroes_in_place(self):
        cbf = CountingBloomFilter(64, 3)
        storage = cbf._counters
        cbf.update(f"i{i}" for i in range(20))
        cbf.clear()
        assert cbf._counters is storage
        assert not any(storage) and cbf.nonzero_value == 0
        assert cbf.num_items == 0 and "i3" not in cbf

    def test_counters_is_a_list_copy(self):
        cbf = CountingBloomFilter(16, 2)
        cbf.add("a")
        snapshot = cbf.counters()
        assert type(snapshot) is list and sum(snapshot) == 2
        snapshot[0] = 9
        assert cbf.counters() != snapshot

    def test_size_bytes_is_the_modelled_width_not_the_storage(self):
        assert CountingBloomFilter(4096, 6).size_bytes() == 2_048
