"""The gateway's bookkeeping costs the same whatever the gateway holds.

Counted, not timed: under ``sys.settrace`` the number of source lines
executed inside ``repro/gateway/`` must be *equal* at two very different
amounts of held state —

- one install into a full, all-pinned cache, and one whole gateway tick,
  shield refresh included, at capacity 64 and at capacity 16 384 (an
  earlier eviction walked every pinned lease per install: 4 097 loop
  iterations at the benchmark's capacity);
- one write-back ``maybe_flush`` that trips no trigger, over 8 pending
  mutations and over 400 spread across the same 8 homes (an earlier
  engine walked every pending mutation of every bucket on every tick to
  find the oldest, though most ticks flush nothing).

That is the property the ``gw_cold_scan`` and ``gw_write_mix`` ledger
numbers rest on, checkable without a clock.  Lines are the unit because
the work these steps leave in C (dict and ``OrderedDict`` operations,
one ``len`` per home, the sketch's heap steps) is set by the fleet and
the counter budget, never by what the cache or the buffer holds.
"""

import os

import pytest

import repro.gateway
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.gateway import GatewayConfig, MetadataClient
from repro.gateway.cache import GatewayCache
from repro.metadata.attributes import FileMetadata

from tests._linecount import REPRO_DIR, lines_executed

CAPACITIES = (64, 16_384)
GATEWAY_DIR = os.path.dirname(repro.gateway.__file__)
#: Pending write-back mutations over the same 8 homes: one a home, 50 a home.
DEPTHS = (8, 400)


def _gateway_lines(call):
    """Source lines ``call()`` executes in ``repro/gateway/``."""
    return lines_executed(call, GATEWAY_DIR)


def _cluster(num_servers):
    return GHBACluster(
        num_servers,
        GHBAConfig(
            max_group_size=4,
            expected_files_per_mds=64,
            lru_capacity=64,
            lru_filter_bits=1 << 10,
            seed=5,
        ),
        seed=5,
    )


def _all_pinned(cache):
    for index in range(cache.capacity):
        path = f"/pin/{index}"
        cache.put(path, 0, FileMetadata(path=path, inode=index), 0.0, hot=True)
    assert len(cache.pinned_paths()) == cache.capacity
    return cache


@pytest.mark.parametrize("hot", [False, True], ids=["cold", "hot"])
def test_install_into_full_pinned_cache_is_occupancy_independent(hot):
    """Both eviction branches: a cold newcomer (the only unpinned entry,
    so it goes itself) and a hot one (the oldest pinned entry goes)."""
    counts = []
    for capacity in CAPACITIES:
        cache = _all_pinned(GatewayCache(capacity=capacity))
        record = FileMetadata(path="/new", inode=1)
        counts.append(
            _gateway_lines(lambda: cache.put("/new", 1, record, 1.0, hot=hot))
        )
        assert cache.stats.evictions == 1 and len(cache) == capacity
    # Fewer lines than even the small cache has entries: no walk at all.
    assert counts[0] == counts[1] and 0 < counts[0] < CAPACITIES[0]


def test_gateway_tick_with_shield_refresh_is_occupancy_independent():
    """One ``lookup_tick`` over a full, all-pinned cache: misses that
    walk the backend and install, a hit, a negative, a coalesced
    duplicate, and the shield refresh pinning a 16-key hot set."""
    counts = []
    for capacity in CAPACITIES:
        cluster = _cluster(4)
        files = [f"/s/d{i % 3}/f{i}" for i in range(40)]
        cluster.populate(files)
        cluster.synchronize_replicas(force=True)
        client = MetadataClient(
            cluster,
            GatewayConfig(
                cache_capacity=capacity, rate_per_s=1e6, burst=1e4,
                hot_threshold=2,
            ),
        )
        _all_pinned(client.cache)
        for key in [f"/pin/{i}" for i in range(12)] + files[:4]:
            client.hotspots.observe(key, 0.0)
            client.hotspots.observe(key, 0.0)
        assert len(client.hotspots.hot_set()) == 16
        tick = [("-", path) for path in files[:8]]
        tick += [("u1", files[0]), ("-", "/pin/3"), ("-", "/s/absent")]
        evictions = client.cache.stats.evictions
        counts.append(_gateway_lines(lambda: client.lookup_tick(tick, 1.0)))
        assert client.cache.stats.evictions - evictions == 9
        assert client.cache.stats.hits == 1
    assert counts[0] == counts[1] > 0


def test_untripped_write_back_check_is_depth_independent():
    """``maybe_flush`` below both triggers, over 8 and over 400 pending
    mutations across the same eight homes (at most 50 a bucket, under the
    size trigger of 64; 1 s old, under the age trigger of 2 s): the same
    lines, all in ``repro/gateway/``, and nothing flushed."""
    counts = []
    for depth in DEPTHS:
        cluster = _cluster(8)
        client = MetadataClient(
            cluster,
            GatewayConfig(
                rate_per_s=1e6, burst=1e4, writeback=True,
                flush_max_pending=64, flush_age_s=2.0,
            ),
        )
        homes = cluster.server_ids()
        for index in range(depth):
            client.create(f"/wb/f{index}", 0.0, home_id=homes[index % 8])
        buffer = client.writeback
        assert len(buffer) == depth
        assert len(buffer.homes()) == len(homes)
        report = None

        def check():
            nonlocal report
            report = client.maybe_flush(1.0)

        counts.append(lines_executed(check, REPRO_DIR, by_package=True))
        assert report.batches == 0 and len(buffer) == depth
    assert counts[0] == counts[1]
    assert set(counts[0]) == {"gateway"}
