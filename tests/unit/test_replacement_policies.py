"""Unit tests for the L1 replacement-policy extension (paper §7)."""

import pytest

from repro.bloom.arrays import LRUBloomFilterArray, REPLACEMENT_POLICIES
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig


def make(policy, capacity=3):
    return LRUBloomFilterArray(
        capacity, filter_bits=1024, num_hashes=4, policy=policy
    )


class TestPolicyValidation:
    def test_known_policies(self):
        assert set(REPLACEMENT_POLICIES) == {"lru", "fifo", "lfu"}
        for policy in REPLACEMENT_POLICIES:
            assert make(policy)._policy == policy

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make("mru")

    def test_config_plumbs_policy(self):
        config = GHBAConfig(lru_policy="lfu", lru_capacity=8)
        cluster = GHBACluster(2, config)
        assert cluster.servers[0].lru._policy == "lfu"

    def test_config_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            GHBAConfig(lru_policy="random")


class TestLRUSemantics:
    def test_reuse_protects_entry(self):
        lru = make("lru")
        lru.record("/a", 1)
        lru.record("/b", 1)
        lru.record("/c", 1)
        lru.record("/a", 1)  # refresh
        lru.record("/d", 1)  # evicts /b (oldest unrefreshed)
        assert lru.peek("/a") == 1
        assert lru.peek("/b") is None


class TestFIFOSemantics:
    def test_reuse_does_not_protect_entry(self):
        fifo = make("fifo")
        fifo.record("/a", 1)
        fifo.record("/b", 1)
        fifo.record("/c", 1)
        fifo.record("/a", 1)  # no refresh under FIFO
        fifo.record("/d", 1)  # evicts /a (first in)
        assert fifo.peek("/a") is None
        assert fifo.peek("/b") == 1

    def test_home_change_updates_mapping(self):
        fifo = make("fifo")
        fifo.record("/a", 1)
        fifo.record("/a", 2)
        assert fifo.peek("/a") == 2
        assert fifo.query("/a").hits == (2,)

    def test_touch_is_noop(self):
        fifo = make("fifo", capacity=2)
        fifo.record("/a", 1)
        fifo.record("/b", 1)
        fifo.touch("/a")
        fifo.record("/c", 1)  # still evicts /a
        assert fifo.peek("/a") is None


class TestLFUSemantics:
    def test_frequent_entry_survives(self):
        lfu = make("lfu")
        for _ in range(5):
            lfu.record("/hot", 1)
        lfu.record("/cold1", 1)
        lfu.record("/cold2", 1)
        lfu.record("/new", 1)  # first sighting: rejected (tie with colds)
        assert lfu.peek("/hot") == 1
        assert lfu.peek("/new") is None
        lfu.record("/new", 1)  # second sighting: displaces a cold entry
        assert lfu.peek("/new") == 1
        assert lfu.peek("/hot") == 1

    def test_touch_counts_as_use(self):
        lfu = make("lfu", capacity=2)
        lfu.record("/a", 1)
        lfu.record("/b", 1)
        lfu.touch("/a")          # /a: 2 uses, /b: 1
        lfu.record("/c", 1)      # tie with /b -> newest (/c) rejected
        assert lfu.peek("/c") is None
        lfu.record("/c", 1)      # ghost count makes /c: 2 > /b: 1
        assert lfu.peek("/a") == 1
        assert lfu.peek("/c") == 1
        assert lfu.peek("/b") is None

    def test_one_hit_wonder_not_admitted(self):
        """An LFU cache full of used entries rejects a single-use newcomer."""
        lfu = make("lfu", capacity=2)
        lfu.record("/a", 1)
        lfu.record("/b", 1)
        lfu.touch("/a")
        lfu.touch("/b")
        lfu.record("/scan", 1)
        assert lfu.peek("/scan") is None
        assert lfu.peek("/a") == 1 and lfu.peek("/b") == 1

    def test_eviction_clears_filter_bits(self):
        lfu = make("lfu", capacity=1)
        lfu.record("/a", 1)
        lfu.record("/b", 1)      # rejected (tie, newest)
        lfu.record("/b", 1)      # admitted (ghost count 2 beats /a's 1)
        assert not lfu.query("/a").hits
        assert lfu.query("/b").hits == (1,)


class TestPoliciesUnderSkew:
    def test_lfu_beats_fifo_on_skewed_stream(self):
        """With a hot set plus a scan, frequency-aware eviction wins."""
        hit_rates = {}
        for policy in ("fifo", "lfu"):
            cache = make(policy, capacity=10)
            hits = total = 0
            for round_index in range(40):
                # Hot items, repeatedly.
                for h in range(8):
                    item = f"/hot{h}"
                    if cache.peek(item) is not None:
                        hits += 1
                    total += 1
                    cache.record(item, 1)
                # A cold scan that pollutes the cache.
                for c in range(4):
                    cache.record(f"/scan{round_index}_{c}", 1)
            hit_rates[policy] = hits / total
        assert hit_rates["lfu"] > hit_rates["fifo"]
