"""Unit tests for heavy-hitter detection (repro.gateway.hotspot).

Includes the lock for the documented **shared-pin semantics**: the
hotspot shield and ``GatewayCache.pin`` are tenant-blind by design — a
pin earned by one tenant's traffic protects the lease for every tenant
(pins donate benefit, never steal capacity), while per-tenant fairness
is enforced upstream at admission.  See the module docstring of
:mod:`repro.gateway.hotspot`.
"""

import os

import pytest

import repro.gateway
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.gateway.client import GatewayConfig, MetadataClient, Outcome
from repro.gateway.hotspot import HotspotDetector, SpaceSavingSketch

from tests._linecount import lines_executed

GATEWAY_DIR = os.path.dirname(repro.gateway.__file__)


class TestSpaceSavingSketch:
    def test_counts_within_capacity_are_exact(self):
        sketch = SpaceSavingSketch(capacity=4)
        for _ in range(5):
            sketch.offer("/a")
        sketch.offer("/b")
        assert sketch.estimate("/a") == 5
        assert sketch.guaranteed("/a") == 5
        assert sketch.estimate("/missing") == 0

    def test_eviction_inherits_floor_as_error(self):
        sketch = SpaceSavingSketch(capacity=2)
        sketch.offer("/a")
        sketch.offer("/a")
        sketch.offer("/b")
        sketch.offer("/c")  # evicts /b (min count 1)
        assert "/b" not in sketch
        assert sketch.estimate("/c") == 2  # floor 1 + its own 1
        assert sketch.guaranteed("/c") == 1

    def test_never_undercounts(self):
        sketch = SpaceSavingSketch(capacity=3)
        truth = {}
        stream = (["/hot"] * 30) + [f"/cold{i % 7}" for i in range(40)]
        for key in stream:
            truth[key] = truth.get(key, 0) + 1
            sketch.offer(key)
        for hitter in sketch.top(3):
            assert hitter.count >= truth.get(hitter.key, 0)
        # The guarantee: any key above N/capacity is monitored.
        assert "/hot" in sketch

    def test_top_is_deterministically_ordered(self):
        sketch = SpaceSavingSketch(capacity=4)
        for key in ["/b", "/a", "/b", "/a", "/c"]:
            sketch.offer(key)
        assert [h.key for h in sketch.top(3)] == ["/a", "/b", "/c"]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SpaceSavingSketch(capacity=0)
        sketch = SpaceSavingSketch()
        with pytest.raises(ValueError):
            sketch.offer("/a", amount=0)


class TestHotspotDetector:
    def test_hot_after_threshold(self):
        detector = HotspotDetector(window_s=5.0, hot_threshold=3)
        for i in range(3):
            detector.observe("/hot", 0.1 * i)
        assert detector.is_hot("/hot")
        assert not detector.is_hot("/cold")
        assert detector.hot_keys() == ["/hot"]

    def test_sketch_eviction_cools_the_evicted_key(self):
        detector = HotspotDetector(capacity=2, window_s=5.0, hot_threshold=1)
        detector.observe("/a", 0.0)
        detector.observe("/b", 0.0)
        detector.observe("/c", 0.0)  # displaces /a (count tie, key order)
        assert detector.hot_keys() == ["/b", "/c"]
        assert not detector.is_hot("/a")

    def test_window_rotation_decays_cold_keys(self):
        detector = HotspotDetector(window_s=1.0, hot_threshold=3)
        for i in range(4):
            detector.observe("/burst", 0.1 * i)
        assert detector.is_hot("/burst")
        # One window later the burst is only in the previous epoch...
        detector.observe("/other", 1.5)
        assert detector.estimate("/burst") == 4
        # ...two windows later it is forgotten entirely.
        detector.observe("/other", 2.5)
        assert detector.estimate("/burst") == 0
        assert not detector.is_hot("/burst")

    def test_sustained_heat_survives_rotation(self):
        detector = HotspotDetector(window_s=1.0, hot_threshold=4)
        for tick in range(30):  # 3 per window across 10 windows
            detector.observe("/steady", tick * 0.1)
        assert detector.rotations >= 2
        assert detector.is_hot("/steady")

    def test_idle_gap_rotates_multiple_epochs(self):
        detector = HotspotDetector(window_s=1.0, hot_threshold=2)
        detector.observe("/a", 0.0)
        detector.observe("/a", 10.0)  # long idle gap
        assert detector.estimate("/a") == 1  # the old epoch fell off
        assert detector.rotations == 10

    def test_a_long_gap_costs_one_jump_not_a_pass_per_window(self):
        """2 * 10^6 elapsed windows: counted, cooled, and a few lines."""
        detector = HotspotDetector(window_s=5.0, hot_threshold=2)
        for _ in range(3):
            detector.observe("/a", 1.0)
        view = detector.hot_set()
        assert view == {"/a"}
        lines_executed(lambda: detector.observe("/a", 1e7 + 1.0), GATEWAY_DIR, 60)
        assert view == set() and detector.hot_set() is view
        assert detector.rotations == 2_000_000 and detector.estimate("/a") == 1
        with pytest.raises(ValueError):
            HotspotDetector(hot_threshold=0)

    def test_top_k_merges_epochs(self):
        detector = HotspotDetector(window_s=1.0, hot_threshold=2)
        detector.observe("/a", 0.9)
        detector.observe("/a", 0.95)
        detector.observe("/a", 1.1)  # rotation: /a spans both epochs
        detector.observe("/b", 1.2)
        top = detector.top_k(2)
        assert [(h.key, h.count) for h in top] == [("/a", 3), ("/b", 1)]


class TestSharedPinSemantics:
    """The documented contract: hot-path pins are **tenant-blind**.

    A pin earned by one tenant's traffic shields the lease for everyone
    — it can only *add* cache residency (donate), never take another
    tenant's admission share (fairness is enforced upstream, before the
    cache is consulted).
    """

    def _client(self, paths, **overrides):
        config = GHBAConfig(
            max_group_size=4,
            expected_files_per_mds=200,
            lru_capacity=128,
            lru_filter_bits=1 << 10,
            seed=5,
        )
        cluster = GHBACluster(4, config, seed=5)
        cluster.populate(paths)
        cluster.synchronize_replicas(force=True)
        defaults = dict(
            cache_capacity=8,
            lease_ttl_s=30.0,
            hot_lease_ttl_s=60.0,
            rate_per_s=1e6,
            burst=1e4,
            hot_threshold=3,
        )
        defaults.update(overrides)
        return cluster, MetadataClient(cluster, GatewayConfig(**defaults))

    def test_pin_earned_by_one_tenant_shields_everyone(self):
        paths = ["/pin/hot"] + [f"/pin/cold{i}" for i in range(20)]
        cluster, client = self._client(paths)
        # Tenant u0's traffic crosses the shield threshold: pinned.
        for i in range(4):
            client.lookup("/pin/hot", 0.1 * i, tenant="u0")
        assert client.hotspots.is_hot("/pin/hot")
        # Tenant u1 floods 20 distinct paths through an 8-entry cache —
        # enough churn to evict any unpinned lease.
        for i in range(20):
            client.lookup(f"/pin/cold{i}", 1.0 + 0.01 * i, tenant="u1")
        # The pinned lease survived the churn and answers u1 from cache:
        # the pin donated benefit across the tenant boundary.
        response = client.lookup("/pin/hot", 2.0, tenant="u1")
        assert response.outcome is Outcome.HIT
        assert response.from_cache
        assert response.tenant == "u1"

    def test_a_lookup_at_wall_clock_seconds_returns(self):
        """A caller passing ``time.time()`` as ``now`` (~1.7 * 10^9 s) is
        served at once, not after one rotation per elapsed window."""
        cluster, client = self._client(["/pin/hot"])
        lines_executed(lambda: client.lookup("/pin/hot", now=1.7e9), GATEWAY_DIR, 1000)
        assert client.cache.peek("/pin/hot").home_id is not None
        assert client.hotspots.rotations == int(1.7e9 / client.hotspots.window_s)

    def test_unpinned_lease_is_evicted_by_the_same_churn(self):
        """Non-vacuity: without the pin (threshold out of reach) the
        identical churn evicts the lease — the previous test passes
        because of the pin, not a too-large cache."""
        paths = ["/pin/hot"] + [f"/pin/cold{i}" for i in range(20)]
        cluster, client = self._client(paths, hot_threshold=1000)
        for i in range(4):
            client.lookup("/pin/hot", 0.1 * i, tenant="u0")
        assert not client.hotspots.is_hot("/pin/hot")
        for i in range(20):
            client.lookup(f"/pin/cold{i}", 1.0 + 0.01 * i, tenant="u1")
        response = client.lookup("/pin/hot", 2.0, tenant="u1")
        assert response.outcome is not Outcome.HIT
