"""Unit tests for the gateway lease cache (repro.gateway.cache)."""

import pytest

from repro.gateway.cache import CacheEntry, GatewayCache
from repro.metadata.attributes import FileMetadata
from repro.metadata.namespace import Namespace


def _record(path, inode=1):
    return FileMetadata(path=path, inode=inode)


class TestLeases:
    def test_miss_then_hit(self):
        cache = GatewayCache(lease_ttl_s=5.0)
        assert not cache.get("/a/f", 0.0).hit
        cache.put("/a/f", 3, _record("/a/f"), 0.0)
        lookup = cache.get("/a/f", 1.0)
        assert lookup.hit and not lookup.negative
        assert lookup.home_id == 3
        assert lookup.record.path == "/a/f"

    def test_lease_expires_into_prediction(self):
        cache = GatewayCache(lease_ttl_s=5.0)
        cache.put("/a/f", 3, _record("/a/f"), 0.0)
        lookup = cache.get("/a/f", 5.0)  # TTL boundary: expired
        assert not lookup.hit
        assert lookup.predicted_home == 3

    def test_negative_lease_shorter_ttl(self):
        cache = GatewayCache(lease_ttl_s=5.0, negative_ttl_s=0.5)
        cache.put_negative("/gone", 0.0)
        assert cache.get("/gone", 0.4).negative
        late = cache.get("/gone", 0.6)
        assert not late.hit
        # A negative entry predicts nothing — it has no home.
        assert late.predicted_home is None

    def test_hit_rate(self):
        cache = GatewayCache()
        cache.put("/a/f", 1, _record("/a/f"), 0.0)
        cache.get("/a/f", 0.1)
        cache.get("/nope", 0.1)
        assert cache.hit_rate() == pytest.approx(0.5)  # one hit, one miss


class TestLRU:
    def test_capacity_evicts_least_recent(self):
        cache = GatewayCache(capacity=2)
        cache.put("/a", 1, _record("/a"), 0.0)
        cache.put("/b", 1, _record("/b"), 0.0)
        cache.get("/a", 0.1)  # refresh /a's recency
        cache.put("/c", 1, _record("/c"), 0.2)
        assert "/a" in cache and "/c" in cache
        assert "/b" not in cache
        assert cache.stats.evictions == 1

    def test_pinned_entries_survive_eviction(self):
        cache = GatewayCache(capacity=2)
        cache.put("/hot", 1, _record("/hot"), 0.0, hot=True)
        cache.put("/b", 1, _record("/b"), 0.1)
        cache.put("/c", 1, _record("/c"), 0.2)
        assert "/hot" in cache  # oldest, but pinned
        assert "/b" not in cache

    def test_all_pinned_degenerate_still_bounded(self):
        cache = GatewayCache(capacity=2)
        for i, path in enumerate(["/a", "/b", "/c"]):
            cache.put(path, 1, _record(path), float(i), hot=True)
        assert len(cache) == 2

    def test_pin_extends_lease(self):
        cache = GatewayCache(lease_ttl_s=1.0, hot_lease_ttl_s=10.0)
        cache.put("/hot", 1, _record("/hot"), 0.0)
        assert cache.pin("/hot", 0.5)
        assert cache.get("/hot", 5.0).hit  # far beyond the plain TTL
        assert cache.pinned_paths() == ["/hot"]

    def test_pin_refuses_negative_and_missing(self):
        cache = GatewayCache()
        cache.put_negative("/gone", 0.0)
        assert not cache.pin("/gone", 0.0)
        assert not cache.pin("/absent", 0.0)

    def test_refresh_preserves_pin(self):
        cache = GatewayCache(capacity=2)
        cache.put("/hot", 1, _record("/hot"), 0.0, hot=True)
        cache.put("/hot", 2, _record("/hot"), 1.0)  # plain refresh
        assert cache.peek("/hot").pinned

    def test_cold_install_into_all_pinned_cache_evicts_itself(self):
        cache = GatewayCache(capacity=2)
        cache.put("/a", 1, _record("/a"), 0.0, hot=True)
        cache.put("/b", 1, _record("/b"), 0.1, hot=True)
        cache.put("/cold", 1, _record("/cold"), 0.2)
        assert cache.pinned_paths() == ["/a", "/b"]
        assert "/cold" not in cache and cache.stats.evictions == 1
        # A hot newcomer cannot go itself: the oldest pinned entry does.
        cache.put("/c", 1, _record("/c"), 0.3, hot=True)
        assert cache.pinned_paths() == ["/b", "/c"]

    def test_unpin_reenters_eviction_order_at_true_recency(self):
        cache = GatewayCache(capacity=3)
        cache.put("/old", 1, _record("/old"), 0.0, hot=True)
        cache.put("/mid", 1, _record("/mid"), 0.1)
        cache.put("/new", 1, _record("/new"), 0.2)
        cache.unpin("/old")
        assert cache.pinned_paths() == []
        # /old was touched least recently, so — pin released — it is the
        # next victim, ahead of the entries installed after it.
        cache.put("/x", 1, _record("/x"), 0.3)
        assert "/old" not in cache and "/mid" in cache
        # A released entry a hit has since refreshed is the *last* victim.
        cache.pin("/mid", 0.4)
        cache.get("/mid", 0.5)
        cache.unpin("/mid")
        cache.put("/y", 1, _record("/y"), 0.6)
        cache.put("/z", 1, _record("/z"), 0.7)
        assert "/mid" in cache and "/new" not in cache and "/x" not in cache
        cache.unpin("/absent")  # no entry: a no-op, not an error

    def test_pin_all_is_pin_for_each_path(self):
        one, batch = GatewayCache(capacity=4), GatewayCache(capacity=4)
        for cache in (one, batch):
            cache.put("/a", 1, _record("/a"), 0.0)
            cache.put("/b", 1, _record("/b"), 0.0, hot=True)
            cache.put_negative("/gone", 0.0)
        paths = {"/a", "/b", "/gone", "/absent"}
        assert batch.pin_all(paths, 1.0, extend=True) == 2
        assert sum(one.pin(p, 1.0) for p in sorted(paths)) == 2
        assert batch.pin_all(paths, 2.0, extend=True) == 2
        assert sum(one.pin(p, 2.0) for p in sorted(paths)) == 2
        for path in ("/a", "/b", "/gone"):
            assert batch.peek(path) == one.peek(path)
        assert batch.peek("/a").expires_at == 2.0 + batch.hot_lease_ttl_s


class TestInvalidation:
    def test_create_and_delete_invalidate_exact_path(self):
        cache = GatewayCache()
        cache.put_negative("/new", 0.0)
        assert cache.invalidate("/new", cause="create")
        cache.put("/old", 1, _record("/old"), 0.0)
        assert cache.invalidate("/old", cause="delete")
        assert len(cache) == 0
        assert cache.stats.invalidations == {"create": 1, "delete": 1}

    def test_invalidate_subtree_scopes_to_descendants(self):
        cache = GatewayCache()
        for path in ["/a", "/a/f1", "/a/d/f2", "/ab/f3", "/b/f4"]:
            cache.put(path, 1, _record(path), 0.0)
        dropped = cache.invalidate_subtree("/a")
        # /ab/f3 shares the string prefix but is NOT under /a.
        assert dropped == 3
        assert "/ab/f3" in cache and "/b/f4" in cache

    def test_invalidate_home_drops_all_leases_for_server(self):
        cache = GatewayCache()
        cache.put("/a", 1, _record("/a"), 0.0)
        cache.put("/b", 2, _record("/b"), 0.0)
        cache.put("/c", 1, _record("/c"), 0.0)
        assert cache.invalidate_home(1) == 2
        assert list(cache.pinned_paths()) == []
        assert "/b" in cache


class TestRenameCorrectness:
    """The rename-correctness satellite: gateway invalidation mirrors the
    authoritative namespace semantics of :mod:`repro.metadata.namespace`."""

    def _tree(self):
        ns = Namespace()
        ns.makedirs("/proj/src/deep")
        ns.create_file("/proj/src/a.c")
        ns.create_file("/proj/src/deep/b.c")
        ns.makedirs("/projects")
        ns.create_file("/projects/readme")
        return ns

    def test_descendants_resolve_under_new_prefix(self):
        ns = self._tree()
        moved = ns.rename("/proj/src", "/proj/lib")
        assert moved == 4  # src, deep, a.c, b.c
        assert ns.stat("/proj/lib/deep/b.c").path == "/proj/lib/deep/b.c"
        assert not ns.exists("/proj/src/a.c")

    def test_gateway_cache_tracks_namespace_rename(self):
        ns = self._tree()
        cache = GatewayCache()
        for meta in ns.walk("/proj/src"):
            cache.put(meta.path, 1, meta, 0.0)
        cache.put("/projects/readme", 2, ns.stat("/projects/readme"), 0.0)

        ns.rename("/proj/src", "/proj/lib")
        cache.invalidate_subtree("/proj/src", cause="rename")
        cache.invalidate_subtree("/proj/lib", cause="rename")

        # Every cached descendant of the renamed directory is gone...
        for stale in ["/proj/src", "/proj/src/a.c", "/proj/src/deep/b.c"]:
            assert stale not in cache
        # ...while the sibling that merely shares a string prefix survives
        # and still agrees with the namespace.
        assert "/projects/readme" in cache
        assert ns.stat("/projects/readme").path == "/projects/readme"

        # Re-resolving through the namespace repopulates correct leases.
        fresh = ns.stat("/proj/lib/a.c")
        cache.put(fresh.path, 1, fresh, 1.0)
        assert cache.get("/proj/lib/a.c", 1.5).record == fresh


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GatewayCache(capacity=0)
        with pytest.raises(ValueError):
            GatewayCache(lease_ttl_s=0.0)

    def test_entry_freshness_boundary(self):
        entry = CacheEntry(
            path="/a", home_id=1, record=None, expires_at=2.0
        )
        assert entry.fresh(1.999)
        assert not entry.fresh(2.0)
