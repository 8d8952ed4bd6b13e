"""One form per fact in the Bloom layer.

A ``HashFamily`` memoises an item's cell tuple and its packed mask
separately, each filled only by the callers that ask for it, and a
``CountingBloomFilter`` holds its counters and nothing derived from them
(no ``_nonzero`` mirror flipped on each zero crossing).  The counter
geometries (L1, IDBFA) hold cells only.  The filter geometry holds the
cells of every path a server added — adds, the cluster's LOCAL / PUB
index and the L2-L4 probes read cells — and a mask only for an item a
packed int was tested against (a verify miss, a replica probed by mask):
a fleet adds every path it holds and tests few of them.

Families are interned process-wide, so each test swaps in an empty intern
table: what it then finds there was put there by its own script.
"""

import random
import sys

import pytest

from repro.bloom import hashing
from repro.bloom.arrays import LRUBloomFilterArray
from repro.bloom.bloom_filter import BloomFilter
from repro.bloom.counting import CountingBloomFilter
from repro.bloom.hashing import HashFamily
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.metadata.attributes import FileMetadata


@pytest.fixture
def families(monkeypatch):
    """The intern table, empty for this test."""
    table = {}
    monkeypatch.setattr(hashing, "_SHARED_FAMILIES", table)
    return table


def _fleet_script(seed=23):
    """Populate, query, sync, join, leave, query again on a small fleet;
    returns it and every path a query asked about."""
    rng = random.Random(seed)
    config = GHBAConfig(
        max_group_size=3,
        expected_files_per_mds=100,
        lru_capacity=40,
        lru_filter_bits=256,
        lru_num_hashes=3,
        update_threshold_bits=0,
    )
    cluster = GHBACluster(7, config, seed=seed)
    paths = [f"/d{i % 9}/f{i}" for i in range(300)]
    cluster.populate(paths)
    asked = set()

    def look(count):
        for _ in range(count):
            roll = rng.random()
            path = rng.choice(paths) if roll < 0.9 else f"/never/{rng.randrange(50)}"
            asked.add(path)
            cluster.query(path, rng.choice(cluster.server_ids()))

    look(400)
    for index in range(300, 360):
        cluster.insert_file(FileMetadata(path=f"/new/f{index}", inode=index))
    cluster.synchronize_replicas()
    look(200)
    cluster.add_server()
    cluster.add_server()
    look(200)
    cluster.remove_server(cluster.server_ids()[1])
    cluster.synchronize_replicas(force=True)
    look(200)
    cluster.check_invariants()
    return cluster, paths, asked


def test_each_geometry_holds_the_forms_its_readers_read(families):
    cluster, paths, asked = _fleet_script()
    by_cell, by_filter = set(), set()
    for server in cluster.servers.values():
        by_filter.add(server.local_filter.hash_family)
        by_filter.update(bloom.hash_family for _, bloom in server.segment.items())
        by_cell.add(server.lru._family)
        by_cell.update(f.hash_family for f in server.lru._filters.values())
        server.lru.check_slices()
    for group in cluster.groups.values():
        by_cell.update(f.hash_family for f in group.idbfa._filters.values())
    # Three geometries - filter, L1, IDBFA - and every family interned
    # during the script is one of them.
    assert len(by_filter) == 1 and len(by_cell) == 2
    assert {id(f) for f in families.values()} == {id(f) for f in by_filter | by_cell}
    for family in by_cell:
        assert family._cells and not family._masks, family
    (family,) = by_filter
    assert family is cluster.index.family
    # Every path added is held by cell; a mask only for a path a query
    # asked about, and the paths only ever added have none.
    assert set(paths) <= family._cells.keys()
    assert family._masks.keys() <= asked
    assert set(paths) - asked and not (set(paths) - asked) & family._masks.keys()
    # Testing a packed int is what memoises a mask.
    server = cluster.servers[cluster.server_ids()[0]]
    assert not server.local_filter.query("/tested/once")
    assert "/tested/once" in family._masks


def test_counting_filter_holds_counters_and_nothing_derived():
    assert CountingBloomFilter.__slots__ == (
        "_counters", "_hashes", "_num_items", "_max_count"
    )


def test_counting_filter_ops_never_ask_for_a_mask(families, monkeypatch):
    def no_mask(self, item):
        raise AssertionError(f"mask({item!r}) asked of a counter geometry")

    monkeypatch.setattr(HashFamily, "mask", no_mask)
    cbf = CountingBloomFilter(128, 3, seed=4)
    for index in range(30):
        cbf.add(f"/f{index}")
    assert all(cbf.query(f"/f{index}") for index in range(30))
    assert "/f3" in cbf and cbf.count_estimate("/f3") >= 1
    for index in range(0, 30, 2):
        cbf.remove(f"/f{index}")
    assert cbf.discard("/never") is False
    lru = LRUBloomFilterArray(8, filter_bits=128, num_hashes=3, seed=4)
    for index in range(20):
        lru.record(f"/f{index}", index % 3)
        lru.query(f"/f{index // 2}")
    lru.invalidate("/f19")
    lru.invalidate_home(1)
    lru.check_slices()
    assert not cbf.hash_family._masks


def test_an_eviction_changes_no_answer(families, monkeypatch):
    """With room for 8 cell tuples and 8 masks, a script over 60 names
    evicts again and again; every answer, the counters and the slices equal
    those of the same script run with room for everything."""
    names = [f"/d{i % 5}/f{i}" for i in range(60)]

    def script():
        rng = random.Random(5)
        lru = LRUBloomFilterArray(24, filter_bits=256, num_hashes=3, seed=9)
        bloom = BloomFilter(512, 4, seed=9)
        answers = []
        for _ in range(600):
            name = rng.choice(names)
            roll = rng.random()
            if roll < 0.4:
                lru.record(name, rng.randrange(4))
                bloom.add(name)
            elif roll < 0.8:
                answers.append((lru.query(name), bloom.query(name)))
            elif roll < 0.9:
                answers.append(lru.invalidate(name))
            else:
                answers.append(bloom.contains_many(rng.sample(names, 5)))
        lru.check_slices()
        counters = [(h, f.counters()) for h, f in lru._filters.items()]
        return answers, counters, list(lru._slices), bloom.bits, lru, bloom

    roomy = script()
    assert max(max(len(f._cells), len(f._masks)) for f in families.values()) == 60

    families.clear()
    monkeypatch.setattr(hashing, "CELL_MEMO_CAPACITY", 8)
    monkeypatch.setattr(hashing, "MASK_MEMO_BYTES", 8 * sys.getsizeof(1 << 511))
    tight = script()
    lru, bloom = tight[4:]
    assert bloom.hash_family._mask_capacity == 8
    assert 0 < len(lru._family._cells) <= 8
    assert 0 < len(bloom.hash_family._cells) <= 8 and 0 < len(bloom.hash_family._masks) <= 8
    assert tight[:4] == roomy[:4]


def test_mask_memo_worst_case_is_bounded_in_bytes(monkeypatch):
    """At ``GHBAConfig()``'s 160 000-bit replicas a full mask memo is at
    most ``MASK_MEMO_BYTES`` of masks - 64 MiB, not the 1.3 GB that 65 536
    entries came to - and at the bench fleet's 16 000 bits it has room for
    the largest census recorded (20 500 masks)."""
    assert hashing.MASK_MEMO_BYTES == 64 << 20
    config = GHBAConfig()
    assert config.filter_num_bits == 160_000
    family = HashFamily(config.filter_num_hashes, config.filter_num_bits, 0)
    widest = sys.getsizeof((1 << config.filter_num_bits) - 1)
    assert 3_000 < family._mask_capacity < 3_300
    assert family._mask_capacity * widest <= hashing.MASK_MEMO_BYTES
    assert HashFamily(11, 16_000, 0)._mask_capacity > 30_000
    # A filter wider than the whole budget still memoises its latest mask.
    monkeypatch.setattr(hashing, "MASK_MEMO_BYTES", 64)
    assert HashFamily(2, 4_096, 0)._mask_capacity == 1
