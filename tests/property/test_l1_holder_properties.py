"""Property tests: the L1 holder map and ``home_of`` by the index.

``GHBACluster.l1_holders`` maps each path to the origins whose L1 array
caches it (bit ``1 << sid`` per origin); the arrays keep it wherever a key
enters or leaves ``_entries``, and a delete or a rename invalidates only
at the origins it names.  ``GHBACluster.home_of`` asks only the stores of
``index.holders(path)``, the servers whose live filter may hold the path.
This suite runs seeded scripts — queries (their L1 records, evictions at
a tiny capacity and ``forget_lru`` after L1 false forwards), cooperative
hints (some naming a stale home, so that a FIFO array re-homes a key),
inserts (some storing a path twice), deletes, renames (cluster-wide and
the standby's per-home ``rename_subtree_at``), an L1 ``clear``, syncs,
joins, departures with re-homing, crashes, recoveries and a checkpoint
round trip — under the three replacement policies, and after every step

- the holder map equals the union of the L1 arrays' entries, and
- ``home_of`` of every path the script can name equals the scan of every
  store in id order (the first holder answers).

Three mutants must each be caught on some seed: an eviction that skips
the map, a FIFO re-home that drops the key's bit, and a departure that
leaves the departed array's bits in the map.

The steps the cell-index suite shares are ``tests._harness.cluster_step``;
``tests._harness.check`` shrinks a failing script.
"""

import random

import pytest

from repro.bloom.arrays import LRUBloomFilterArray
from repro.core.cluster import GHBACluster, _ModelWalk
from repro.core.config import GHBAConfig

from tests._harness import check, cluster_step, pick, replay

SEEDS = range(18)
PATHS = [f"/h/d{d}/f{f}" for d in range(5) for f in range(8)]
ABSENT = [f"/h/none{i}" for i in range(4)]
STEPS = (
    "query", "query", "query", "hint", "insert", "delete", "rename",
    "rename_at", "clear", "sync", "join", "leave", "fail", "recover",
    "checkpoint",
)
POLICIES = ("lru", "fifo", "lfu")


def _config(seed):
    return GHBAConfig(
        max_group_size=3,
        expected_files_per_mds=32,
        lru_capacity=2 + seed % 3,
        lru_filter_bits=32,
        lru_num_hashes=2,
        lru_policy=POLICIES[seed % 3],
        cooperative_fanout=2 if seed % 2 == 0 else 0,
        update_threshold_bits=4,
        seed=7,
    )


def _generate_ops(seed, length=60):
    rng = random.Random(seed)
    return [(rng.choice(STEPS), rng.random(), rng.random()) for _ in range(length)]


def _fleet(seed):
    cluster = GHBACluster(5, _config(seed), seed=seed)
    cluster.populate(PATHS)
    cluster.synchronize_replicas(force=True)
    return cluster


def _named(cluster):
    """Every path the script can name, stored or not."""
    names = set(PATHS) | set(ABSENT) | set(cluster.l1_holders)
    for server in cluster.servers.values():
        names.update(server.store.paths())
    return sorted(names)


def _apply(cluster, op, renamed):
    """Carry out ``op``: this suite's own steps (a delete names any path
    the script can name, three syncs in ten are forced), else the shared
    ones; returns the cluster (a round trip makes a new one)."""
    kind, a, b = op
    ids = cluster.server_ids()
    if kind == "delete":
        cluster.delete_file(pick(_named(cluster), a))
    elif kind == "sync":
        cluster.synchronize_replicas(force=b < 0.3)
    elif kind == "query":
        cluster.query(pick(_named(cluster), a), pick(ids, b))
    elif kind == "hint":  # a peer's hint; the home may be stale
        cluster._share_lru_hint(pick(ids, a), pick(_named(cluster), b), pick(ids, a * b))
    elif kind == "rename_at":
        renamed.append(len(renamed))
        cluster.rename_subtree_at(pick(ids, b), f"/h/d{int(a * 5)}", f"/h/r{len(renamed)}")
    elif kind == "clear":
        cluster.servers[pick(ids, a)].lru.clear()
    else:
        return cluster_step(cluster, op, PATHS, renamed)
    return cluster


def _mismatch(cluster):
    """The first way the map or ``home_of`` is wrong, or None."""
    union = {}
    for sid, server in cluster.servers.items():
        for path in server.lru._entries:
            union[path] = union.get(path, 0) | 1 << sid
    if union != cluster.l1_holders:
        wrong = sorted(
            path for path in union.keys() | cluster.l1_holders.keys()
            if union.get(path) != cluster.l1_holders.get(path)
        )
        path = wrong[0]
        return (
            f"holders of {path}: map {cluster.l1_holders.get(path, 0):#b}, "
            f"L1 arrays {union.get(path, 0):#b}"
        )
    for path in _named(cluster):
        scan = next(
            (sid for sid, server in cluster.servers.items() if server.has_metadata(path)),
            None,
        )
        if cluster.home_of(path) != scan:
            return f"home_of({path}) = {cluster.home_of(path)}, scan {scan}"
    return None


def _first_failure(seed, ops):
    """Replay ``ops`` on a fresh fleet; the first failed check, or None."""
    cluster, renamed = _fleet(seed), []

    def step(op):
        nonlocal cluster
        cluster = _apply(cluster, op, renamed)
        return _mismatch(cluster)

    return replay(ops, step)


@pytest.mark.parametrize("seed", SEEDS)
def test_holders_and_home_of_after_every_step(seed):
    check(seed, _generate_ops(seed), lambda ops: _first_failure(seed, ops))


def test_scripts_reach_every_step_and_case(monkeypatch):
    """The scripts exercise what they claim: every step kind under every
    policy, evictions, a ``forget_lru`` of a cached key, a FIFO re-home,
    a path stored twice, an invalidation that names several origins, and
    a delete of a stored name outside the seeded tree (a renamed one)."""
    seen = set()
    cases = dict.fromkeys(
        ("evict", "forget", "fifo_rehome", "stored_twice", "several_holders",
         "delete_moved"), 0
    )
    evict, record, forget, delete = (
        LRUBloomFilterArray._evict_one,
        LRUBloomFilterArray.record,
        _ModelWalk.forget_lru,
        GHBACluster.delete_file,
    )

    def counting_evict(self):
        cases["evict"] += 1
        evict(self)

    def counting_record(self, item, home_id):
        previous = self._entries.get(item)
        cases["fifo_rehome"] += self._is_fifo and previous not in (None, home_id)
        record(self, item, home_id)

    def counting_forget(self):
        cases["forget"] += self.path in self.origin.lru._entries
        forget(self)

    def counting_delete(self, path):
        cases["delete_moved"] += path not in PATHS and self.home_of(path) is not None
        return delete(self, path)

    monkeypatch.setattr(LRUBloomFilterArray, "_evict_one", counting_evict)
    monkeypatch.setattr(LRUBloomFilterArray, "record", counting_record)
    monkeypatch.setattr(_ModelWalk, "forget_lru", counting_forget)
    monkeypatch.setattr(GHBACluster, "delete_file", counting_delete)
    for seed in SEEDS:
        cluster, renamed = _fleet(seed), []
        for op in _generate_ops(seed):
            if op[0] in ("delete", "rename", "rename_at"):
                cases["several_holders"] += any(
                    bits & (bits - 1) for bits in cluster.l1_holders.values()
                )
            cluster = _apply(cluster, op, renamed)
            seen.add((op[0], cluster.config.lru_policy))
            cases["stored_twice"] += any(
                len([s for s in cluster.servers.values() if s.has_metadata(p)]) > 1
                for p in PATHS
            )
    assert seen == {(step, policy) for step in STEPS for policy in POLICIES}
    assert all(cases.values()), cases


def test_an_eviction_that_skips_the_map_is_caught(monkeypatch):
    def _evict_one(self):
        item = self._pick_victim()
        home_id = self._entries.pop(item)
        self._filters[home_id].discard(item)
        self._reslice(item, home_id)

    monkeypatch.setattr(LRUBloomFilterArray, "_evict_one", _evict_one)
    assert any(_first_failure(seed, _generate_ops(seed)) is not None for seed in SEEDS)


def test_a_fifo_rehome_that_drops_the_bit_is_caught(monkeypatch):
    record = LRUBloomFilterArray.record

    def mutant(self, item, home_id):
        rehome = self._is_fifo and self._entries.get(item) not in (None, home_id)
        record(self, item, home_id)
        if rehome and self._holders is not None:
            self._unhold(item)

    monkeypatch.setattr(LRUBloomFilterArray, "record", mutant)
    assert any(_first_failure(seed, _generate_ops(seed)) is not None for seed in SEEDS)


def test_a_departure_that_leaves_its_bits_is_caught(monkeypatch):
    def leave_holders(self):
        self._holders = None

    monkeypatch.setattr(LRUBloomFilterArray, "leave_holders", leave_holders)
    assert any(_first_failure(seed, _generate_ops(seed)) is not None for seed in SEEDS)
