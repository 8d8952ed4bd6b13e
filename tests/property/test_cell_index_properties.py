"""Property tests: the cluster's cell index is the transpose of the filters.

``GHBACluster.index`` keeps LOCAL and PUB side by side, one integer per
filter cell with two bits per server id, plus each host's scope (its own
LOCAL bit and the PUB bits of the published copies it hosts) and its
fallback list of every other replica.  L2, L3 and L4 read it instead of
the filters.  This suite runs seeded scripts of every
step that changes a filter or a hosted replica — insert, delete, rename,
``rebuild_local_filter``, a publish that is not shipped, sync, forced
sync, join, leave with re-homing, fail, recover (joins split groups and
departures merge them at M = 3), a checkpoint round trip, and a
hand-installed replica that differs from its home's published filter —
and after every step

- calls ``check_index()``, and
- compares the L2 hits of every server, the L3 hits of every group (all
  members, and a subset as a faulty multicast reaches it) and the L4
  holders (all servers, and less some a faulty broadcast lost) with an
  AND walk over the filters themselves.

``tests/_reference_query.py`` drives the live ``probe_segment`` /
``multicast_query``, so it cannot catch an index that drifted from the
filters; this suite can.  Three mutants of the index must each be caught
on some seed.

The steps the L1 holder suite shares are ``tests._harness.cluster_step``;
``tests._harness.check`` shrinks a failing script.
"""

import itertools
import random

import pytest

from repro.core import cellindex
from repro.core.cellindex import CellIndex
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig

from tests._harness import check, cluster_step, pick, replay

SEEDS = range(20)
PATHS = [f"/c/d{d}/f{f}" for d in range(6) for f in range(12)]
ABSENT = [f"/c/none{i}" for i in range(6)]
STEPS = (
    "insert", "delete", "rename", "rebuild", "publish", "sync", "force",
    "join", "leave", "fail", "recover", "checkpoint", "hand",
)


def _config():
    return GHBAConfig(
        max_group_size=3,
        expected_files_per_mds=32,
        lru_capacity=8,
        lru_filter_bits=64,
        update_threshold_bits=4,
        seed=5,
    )


def _generate_ops(seed, length=45):
    rng = random.Random(seed)
    return [(rng.choice(STEPS), rng.random(), rng.random()) for _ in range(length)]


def _fleet():
    cluster = GHBACluster(6, _config(), seed=3)
    cluster.populate(PATHS)
    cluster.synchronize_replicas(force=True)
    return cluster


def _apply(cluster, op, renamed):
    """Carry out ``op``: this suite's own steps, else the shared ones;
    returns the cluster (a round trip makes a new one)."""
    kind, a, b = op
    ids = cluster.server_ids()
    if kind == "rebuild":
        cluster.servers[pick(ids, a)].rebuild_local_filter()
    elif kind == "publish":  # published, not yet shipped
        cluster.servers[pick(ids, a)].publish_filter()
    elif kind == "force":
        cluster.synchronize_replicas(force=True)
    elif kind == "hand":
        hosts = [sid for sid in ids if cluster.servers[sid].theta]
        if hosts:
            host = cluster.servers[pick(hosts, a)]
            home = pick(host.hosted_replicas(), b)
            differing = host.segment.get_replica(home).copy()
            differing.add(f"/hand/{int(a * 1000)}")
            host.replace_replica(home, differing)
    else:
        return cluster_step(cluster, op, PATHS, renamed)
    return cluster


def _walk_hits(pairs, path):
    """The AND walk over filters: ids of the ``(id, filter)`` pairs that
    may hold ``path``, ascending."""
    return tuple(sorted({sid for sid, bloom in pairs if bloom.query(path)}))


def _l2_pairs(server):
    return [(server.server_id, server.local_filter), *server.segment.items()]


def _compare(cluster, rng_seed):
    """Every level's hits against the walk over the filters; returns a
    description of the first mismatch, or None."""
    rng = random.Random(rng_seed)
    paths = rng.sample(PATHS, 6) + rng.sample(ABSENT, 2) + ["/c/new3", "/c/r1/f2"]
    for path in paths:
        for sid, server in cluster.servers.items():
            want = _walk_hits(_l2_pairs(server), path)
            have = server.probe_segment(path)
            if have.hits != want or have.probes != server.theta + 1:
                return f"L2 at {sid} for {path}: {have} != {want}"
        for gid, group in cluster.groups.items():
            members = group.member_ids()
            reached = [m for m in members if rng.random() < 0.6] or members[:1]
            for chosen in (None, reached):
                pairs = [
                    pair
                    for m in (members if chosen is None else chosen)
                    for pair in _l2_pairs(cluster.servers[m])
                ]
                have = group.multicast_query(path, member_ids=chosen)
                if have.hits != _walk_hits(pairs, path):
                    return f"L3 of {gid} {chosen} for {path}: {have.hits}"
                if have.probes != len(pairs):
                    return f"L3 of {gid} {chosen} probes {have.probes} != {len(pairs)}"
        lost = [sid for sid in cluster.servers if rng.random() < 0.3]
        for gone in ((), lost):
            want = _walk_hits(
                [(sid, s.local_filter) for sid, s in cluster.servers.items()
                 if sid not in gone],
                path,
            )
            have = cluster.index.holders(path, gone)
            if have != want:
                return f"L4 for {path} less {gone}: {have} != {want}"
    return None


def _first_failure(ops):
    """Replay ``ops`` on a fresh fleet; the first failed check, or None."""
    cluster, renamed, steps = _fleet(), [], itertools.count()

    def step(op):
        nonlocal cluster
        cluster = _apply(cluster, op, renamed)
        cluster.index.check_index()
        return _compare(cluster, next(steps))

    return replay(ops, step)


@pytest.mark.parametrize("seed", SEEDS)
def test_index_is_the_transpose_after_every_step(seed):
    check(seed, _generate_ops(seed), _first_failure)


def test_scripts_reach_every_step_and_shape():
    """The scripts exercise what they claim: every step kind, a split, a
    merge, fallback replicas and copies read through PUB."""
    seen, splits, merges, fallback, hosted = set(), 0, 0, 0, 0
    for seed in SEEDS:
        cluster, renamed = _fleet(), []
        for op in _generate_ops(seed):
            before = cluster.num_groups
            cluster = _apply(cluster, op, renamed)
            seen.add(op[0])
            splits += cluster.num_groups > before
            merges += cluster.num_groups < before
            fallback += sum(map(len, cluster.index.fallback.values()))
            hosted += sum(bin(mask).count("1") - 1 for mask in cluster.index.scope.values())
    assert seen == set(STEPS)
    assert splits and merges and fallback and hosted


def test_a_publish_that_leaves_stale_copies_in_pub_is_caught(monkeypatch):
    def published(self, sid, diff):
        self._flip(2 << 2 * sid, diff)  # the copies stay in the scopes

    monkeypatch.setattr(CellIndex, "published", published)
    assert any(_first_failure(_generate_ops(seed)) is not None for seed in SEEDS)


def test_a_move_that_forgets_the_source_mask_is_caught(monkeypatch):
    original = CellIndex.unhost

    def unhost(self, sid, home):
        if not self.scope[sid] >> (2 * home + 1) & 1:
            original(self, sid, home)

    monkeypatch.setattr(CellIndex, "unhost", unhost)
    assert any(_first_failure(_generate_ops(seed)) is not None for seed in SEEDS)


def test_a_departure_that_keeps_its_columns_is_caught(monkeypatch):
    def leave(self, server):
        sid = server.server_id
        self._unpublish(sid)
        for home in cellindex._homes(self.scope.pop(sid) ^ 1 << 2 * sid):
            self.copies[home].discard(sid)
        del self.fallback[sid]
        self.everyone ^= 1 << 2 * sid
        server._index = None

    monkeypatch.setattr(CellIndex, "leave", leave)
    assert any(_first_failure(_generate_ops(seed)) is not None for seed in SEEDS)
