"""Differential oracle: the O(1) lease cache and hotspot detector vs the
frozen scan-based ones.

ISSUE 13 replaced three per-lookup scans — the eviction walk over every
entry, the per-tick ``hot_keys()`` rebuild, the lambda min-scan of the
sketch — by maintained indexes.  The contract is *observational
invisibility*: not one answer, counter, lease expiry or eviction victim
may differ.  ``tests/_reference_gateway_cache.py`` is a frozen copy of
the scanning code; this suite replays seeded op sequences through both
and diffs every observable after every op:

- the cache's recency order (``list(_entries)``), every entry field
  (expiry, pin, home, record), the pinned set and :class:`CacheStats`,
  plus each op's own return value;
- the detector's ``hot_keys()``, ``is_hot`` / ``estimate`` of every key
  in the universe, ``top_k``, the rotation count and the current
  sketch's counter and error tables;
- the structural invariants the speed-up rests on: the unpinned index is
  exactly the unpinned entries of ``_entries`` in the same order, and
  the maintained hot set is exactly the reference's rebuilt one.

Seeded scripts on ``tests._harness`` (ops carry all their randomness, so
any subsequence replays deterministically).  The ``shield`` op is the client's per-tick refresh
as each side spells it: one ``pin_all`` over the maintained set against
a ``pin`` per sorted ``hot_keys()`` entry.

The reference still counts an entry ``version`` and three stats tallies
and imports the detector's ``DEFAULT_TENANT``, all since deleted: it is
handed them here, unedited, and only the live fields are compared.
"""

import dataclasses
import random
import re
from unittest import mock

import pytest

import repro.gateway.hotspot
from repro.gateway.cache import CacheEntry, CacheStats, GatewayCache
from repro.gateway.hotspot import HotspotDetector
from repro.metadata.attributes import FileMetadata

from tests._harness import check, replay

with mock.patch.object(repro.gateway.hotspot, "DEFAULT_TENANT", "-", create=True):
    from tests import _reference_gateway_cache as reference


_RefEntry = dataclasses.make_dataclass(
    "_RefEntry", [("version", int, 0)], bases=(CacheEntry,)
)
_RefStats = dataclasses.make_dataclass(
    "_RefStats",
    [(name, int, 0) for name in ("expired", "insertions", "clamped")],
    bases=(CacheStats,),
)


@pytest.fixture(autouse=True)
def _reference_types(monkeypatch):
    monkeypatch.setattr(reference, "CacheEntry", _RefEntry)
    monkeypatch.setattr(reference, "CacheStats", _RefStats)


def _observed(value):
    """An entry or the stats reduced to the fields the live class has."""
    for live in (CacheEntry, CacheStats):
        if isinstance(value, live):
            return tuple(getattr(value, f.name) for f in dataclasses.fields(live))
    return value


SEEDS = range(32)

#: Four directories of six files, the directories themselves, and a few
#: never-created paths (negative leases).
UNIVERSE = (
    [f"/d{d}/f{f}" for d in range(4) for f in range(6)]
    + [f"/d{d}" for d in range(4)]
    + [f"/gone/g{g}" for g in range(3)]
)

#: (cache capacity, sketch capacity, window_s, hot_threshold)
GEOMETRIES = [
    (1, 2, 0.5, 1),
    (3, 4, 1.0, 2),
    (6, 4, 1.0, 3),
    (8, 16, 2.0, 4),
    (12, 3, 0.7, 2),
]


def _generate_ops(seed, length=160):
    """A reproducible op list; every op carries its own randomness."""
    rng = random.Random(seed)
    ops = [("geometry", GEOMETRIES[seed % len(GEOMETRIES)])]
    now = 0.0
    for _ in range(length):
        now += rng.choice((0.0, 0.01, 0.05, 0.3, 0.9))
        # Skewed, so that pins meet their releases, hits meet installs,
        # and some keys cross the hot threshold while others churn
        # through the sketch's minimum.
        path = UNIVERSE[min(int(rng.expovariate(0.12)), len(UNIVERSE) - 1)]
        roll = rng.random()
        if roll < 0.18:
            ops.append(("get", (path, now)))
        elif roll < 0.36:
            hot = rng.random() < 0.4
            ops.append(("put", (path, rng.randrange(4), now, hot)))
        elif roll < 0.42:
            ops.append(("put_negative", (path, now)))
        elif roll < 0.50:
            ops.append(("pin", (path, now, rng.random() < 0.5)))
        elif roll < 0.56:
            ops.append(("unpin", path))
        elif roll < 0.58:
            ops.append(("invalidate", path))
        elif roll < 0.61:
            ops.append(("invalidate_subtree", f"/d{rng.randrange(4)}"))
        elif roll < 0.63:
            ops.append(("invalidate_home", rng.randrange(4)))
        elif roll < 0.65:
            ops.append(("clamp_ttl", (rng.choice((0.2, 1.0, 8.0)), now)))
        elif roll < 0.67:
            ops.append(("release", None))
        elif roll < 0.68:
            ops.append(("clear", None))
        elif roll < 0.88:
            ops.append(("observe", (path, now)))
        else:
            ops.append(("shield", (now, rng.random() < 0.5)))
    return ops


class _Mirror:
    """The live cache + detector and their frozen twins."""

    def __init__(self, capacity, sketch_capacity, window_s, hot_threshold):
        ttls = dict(lease_ttl_s=1.0, negative_ttl_s=0.3, hot_lease_ttl_s=4.0)
        self.cache = GatewayCache(capacity=capacity, **ttls)
        self.ref_cache = reference.RefGatewayCache(capacity=capacity, **ttls)
        self.hot = HotspotDetector(sketch_capacity, window_s, hot_threshold)
        self.ref_hot = reference.RefHotspotDetector(
            sketch_capacity, window_s, hot_threshold
        )

    def apply(self, op, arg):
        """Apply one op to both sides; a failure string when the two
        return values differ, else None."""
        cache, ref_cache, hot, ref_hot = (
            self.cache, self.ref_cache, self.hot, self.ref_hot
        )
        got = want = None
        if op == "get":
            got, want = cache.get(*arg), ref_cache.get(*arg)
        elif op == "put":
            path, home, now, is_hot = arg
            record = FileMetadata(path=path, inode=home)
            got = cache.put(path, home, record, now, hot=is_hot)
            want = ref_cache.put(path, home, record, now, hot=is_hot)
        elif op == "put_negative":
            got, want = cache.put_negative(*arg), ref_cache.put_negative(*arg)
        elif op == "pin":
            path, now, extend = arg
            got = cache.pin_all((path,), now, extend) == 1
            want = ref_cache.pin(path, now, extend)
        elif op == "unpin":
            cache.unpin(arg)
            ref_cache.unpin(arg)
        elif op == "invalidate":
            got, want = cache.invalidate(arg), ref_cache.invalidate(arg)
        elif op == "invalidate_subtree":
            got = cache.invalidate_subtree(arg)
            want = ref_cache.invalidate_subtree(arg)
        elif op == "invalidate_home":
            got = cache.invalidate_home(arg)
            want = ref_cache.invalidate_home(arg)
        elif op == "clamp_ttl":
            got, want = cache.clamp_ttl(*arg), ref_cache.clamp_ttl(*arg)
        elif op == "release":
            cache.release_ttl_clamp()
            ref_cache.release_ttl_clamp()
        elif op == "clear":
            cache.clear()
            ref_cache.clear()
        elif op == "observe":
            hot.observe(*arg)
            ref_hot.observe(*arg)
        elif op == "shield":
            now, extend = arg
            got = cache.pin_all(hot.hot_set(), now, extend=extend)
            want = sum(
                ref_cache.pin(path, now, extend=extend)
                for path in ref_hot.hot_keys()
            )
        else:  # pragma: no cover - generator and runner must stay in sync
            return f"unknown op {op!r}"
        if _observed(got) != _observed(want):
            return f"returned {got!r}, reference {want!r}"
        return None

    def check_state(self):
        """Every observable of both pairs, compared — run after every op."""
        cache, ref_cache, hot, ref_hot = (
            self.cache, self.ref_cache, self.hot, self.ref_hot
        )
        if list(cache._entries) != list(ref_cache._entries):
            return (
                f"recency order {list(cache._entries)} "
                f"!= reference {list(ref_cache._entries)}"
            )
        for path, entry in cache._entries.items():
            if _observed(entry) != _observed(ref_cache._entries[path]):
                return f"entry {entry} != reference {ref_cache._entries[path]}"
        if cache.pinned_paths() != ref_cache.pinned_paths():
            return "pinned sets diverged"
        if _observed(cache.stats) != _observed(ref_cache.stats):
            return f"stats {cache.stats} != reference {ref_cache.stats}"
        if (len(cache), cache.ttl_clamp_s) != (
            len(ref_cache), ref_cache.ttl_clamp_s
        ):
            return "size or clamp diverged"
        unpinned = [p for p, e in cache._entries.items() if not e.pinned]
        if list(cache._unpinned) != unpinned:
            return (
                f"unpinned index {list(cache._unpinned)} != the unpinned "
                f"entries in recency order {unpinned}"
            )
        if hot.hot_keys() != ref_hot.hot_keys():
            return f"hot_keys {hot.hot_keys()} != {ref_hot.hot_keys()}"
        if hot.hot_set() != set(ref_hot.hot_keys()):
            return "maintained hot set != the reference's rebuilt one"
        if hot.rotations != ref_hot.rotations:
            return "rotation counts diverged"
        for key in UNIVERSE:
            for probe in ("is_hot", "estimate"):
                got = getattr(hot, probe)(key)
                want = getattr(ref_hot, probe)(key)
                if got != want:
                    return f"{probe}({key!r}) -> {got!r}, reference {want!r}"
        if hot.top_k(5) != ref_hot.top_k(5):
            return "top_k diverged"
        for table in ("_counts", "_errors"):
            if getattr(hot._current, table) != getattr(ref_hot._current, table):
                return f"current sketch {table} diverged"
        return None


def _run(ops):
    """Replay ``ops``; return a failure description or ``None``."""
    if not ops or ops[0][0] != "geometry":
        return None  # shrinking dropped the header; nothing to replay
    mirror = _Mirror(*ops[0][1])
    return replay(ops[1:], lambda op: mirror.apply(*op) or mirror.check_state())


@pytest.mark.parametrize("seed", SEEDS)
def test_indexed_cache_and_detector_match_reference(seed):
    check(seed, _generate_ops(seed), _run)


def test_sequences_reach_the_cases_that_matter():
    """The generator is not vacuous: across the seeds both eviction
    branches (an unpinned victim; a pinned one because everything is
    pinned), released pins, epoch rotations and sketch evictions occur."""
    unpinned_victims = pinned_victims = unpins = rotations = displaced = 0
    for seed in SEEDS:
        ops = _generate_ops(seed)
        mirror = _Mirror(*ops[0][1])
        cache, sketch = mirror.cache, mirror.hot
        for op, arg in ops[1:]:
            pinned = {p: e.pinned for p, e in cache._entries.items()}
            monitored = set(sketch._current._counts)
            mirror.apply(op, arg)
            if op in ("put", "put_negative"):
                for victim in pinned.keys() - cache._entries.keys():
                    pinned_victims += pinned[victim]
                    unpinned_victims += not pinned[victim]
            elif op == "unpin":
                unpins += pinned.get(arg, False)
            displaced += bool(monitored - set(sketch._current._counts))
        rotations += sketch.rotations
    assert min(unpinned_victims, pinned_victims, displaced) > 50
    assert unpins > 30 and rotations > 1000


def test_oracle_catches_a_stale_unpinned_index(monkeypatch):
    """The harness is not vacuous: a cache whose ``get`` refreshes
    ``_entries`` but forgets to touch the unpinned index is caught, and
    shrinks to a short sequence."""
    get = GatewayCache.get

    def stale_get(self, path, now):
        if path not in self._unpinned:
            return get(self, path, now)
        keys = list(self._unpinned)
        lookup = get(self, path, now)
        self._unpinned.clear()
        self._unpinned.update((p, None) for p in keys)
        return lookup

    monkeypatch.setattr(GatewayCache, "get", stale_get)
    with pytest.raises(pytest.fail.Exception) as failed:
        for seed in SEEDS:
            check(seed, _generate_ops(seed), _run)
    report = str(failed.value)
    assert "unpinned index" in report.splitlines()[-1]
    # header, two puts, the hit
    assert int(re.search(r"shrunk to (\d+) ops", report).group(1)) <= 4
