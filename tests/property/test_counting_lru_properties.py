"""Property-based tests for counting filters and the LRU array."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.arrays import LRUBloomFilterArray
from repro.bloom.counting import CountingBloomFilter


class TestCountingFilterProperties:
    @given(
        items=st.lists(st.text(min_size=1, max_size=16), max_size=40, unique=True)
    )
    def test_add_all_then_remove_all_restores_emptiness(self, items):
        cbf = CountingBloomFilter(2048, 4)
        for item in items:
            cbf.add(item)
        for item in items:
            cbf.remove(item)
        assert cbf.num_items == 0
        assert not any(cbf.counters())

    @given(
        keep=st.lists(st.text(min_size=1, max_size=12), max_size=30, unique=True),
        drop=st.lists(st.text(min_size=1, max_size=12), max_size=30, unique=True),
    )
    def test_removals_never_cause_false_negatives(self, keep, drop):
        """Items still in the set must survive any sequence of deletions."""
        keep_set = set(keep) - set(drop)
        cbf = CountingBloomFilter(4096, 4)
        for item in set(keep) | set(drop):
            cbf.add(item)
        for item in drop:
            cbf.remove(item)
        assert all(cbf.query(item) for item in keep_set)

    @given(
        items=st.lists(st.text(min_size=1, max_size=12), max_size=30, unique=True)
    )
    def test_projection_to_plain_filter_preserves_membership(self, items):
        cbf = CountingBloomFilter(2048, 4)
        for item in items:
            cbf.add(item)
        bloom = cbf.to_bloom_filter()
        assert all(bloom.query(item) for item in items)


#: Operation stream for the LRU model check.
lru_ops = st.lists(
    st.tuples(
        st.sampled_from(["record", "invalidate", "touch"]),
        st.integers(min_value=0, max_value=15),  # item index
        st.integers(min_value=0, max_value=4),   # home id
    ),
    max_size=80,
)


class TestLRUModelConformance:
    @given(ops=lru_ops, capacity=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60)
    def test_matches_reference_lru(self, ops, capacity):
        """The Bloom-backed LRU must track a plain OrderedDict LRU exactly
        (ground truth; the Bloom filters may add false positives on query
        but `peek` must be exact)."""
        lru = LRUBloomFilterArray(capacity, filter_bits=1024, num_hashes=4)
        model: "OrderedDict[str, int]" = OrderedDict()
        for op, item_index, home in ops:
            item = f"/item{item_index}"
            if op == "record":
                if item in model and model[item] != home:
                    del model[item]
                model.pop(item, None)
                model[item] = home
                if len(model) > capacity:
                    model.popitem(last=False)
                lru.record(item, home)
            elif op == "invalidate":
                expected = model.pop(item, None) is not None
                assert lru.invalidate(item) == expected
            else:  # touch
                if item in model:
                    model.move_to_end(item)
                lru.touch(item)
            assert len(lru) == len(model)
            for key, value in model.items():
                assert lru.peek(key) == value

    @given(ops=lru_ops)
    @settings(max_examples=40)
    def test_entries_always_queryable(self, ops):
        """No false negatives: every live entry must hit its home filter."""
        lru = LRUBloomFilterArray(8, filter_bits=2048, num_hashes=4)
        live = {}
        for op, item_index, home in ops:
            item = f"/item{item_index}"
            if op == "record":
                lru.record(item, home)
                live[item] = home
                while len(live) > len(lru._entries):
                    # mirror evictions
                    gone = next(
                        k for k in live if lru.peek(k) is None
                    )
                    del live[gone]
            elif op == "invalidate":
                lru.invalidate(item)
                live.pop(item, None)
        live = {k: v for k, v in live.items() if lru.peek(k) is not None}
        for item, home in live.items():
            assert home in lru.query(item).hits
