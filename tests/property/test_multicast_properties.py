"""Property-based tests: the L3 multicast is its members' L2 probes.

``Group.multicast_query`` walks one row per member and ANDs one mask into
the local filter and every hosted replica.  Whatever the membership and
replica history, its answer must be what probing each reached member
alone says: the hits are the union of the members'
``probe_segment(path).hits``, the probes their sum, and each reached
member's ``ghba_server_probes_total{level="l2"}`` moves as a
``probe_segment`` moves it — by exactly one on a server that counts.

Seeded scripts mix joins, graceful and crash departures, recoveries,
creates, deletes, renames, forced syncs, local-filter rebuilds and a
checkpoint round trip (the restored groups adopt their members afresh;
restored servers count no probes).  After every step every group is
probed for stored, deleted and never-created paths, with all members and
with a random reached subset.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import checkpoint
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.metadata.attributes import FileMetadata

MAX_SERVERS = 10
INITIAL_PATHS = tuple(f"/m/d{i % 4}/f{i}" for i in range(40))
NEVER_CREATED = ("/m/ghost", "/m/d0/ghost", "/never/f0")

OPS = (
    "join", "leave", "crash", "recover", "create", "delete", "rename",
    "sync", "rebuild", "checkpoint",
)

ops_strategy = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(min_value=0, max_value=10**6)),
    min_size=1,
    max_size=14,
)


class _Script:
    """A cluster under a script, with the paths it stored and deleted."""

    def __init__(self, servers, max_group_size, seed):
        config = GHBAConfig(
            max_group_size=max_group_size,
            expected_files_per_mds=64,
            lru_capacity=8,
            lru_filter_bits=64,
            seed=seed,
        )
        self.cluster = GHBACluster(servers, config, seed=seed)
        self.cluster.populate(INITIAL_PATHS)
        self.cluster.synchronize_replicas(force=True)
        self.deleted = set()
        self.restored = False
        self.created = 0

    def stored(self):
        return sorted(
            path
            for server in self.cluster.servers.values()
            for path in server.store.paths()
        )

    def apply(self, op, draw):
        cluster = self.cluster
        ids = cluster.server_ids()
        victim = ids[draw % len(ids)]
        if op == "join" and cluster.num_servers < MAX_SERVERS:
            cluster.add_server()
        elif op in ("leave", "crash") and cluster.num_servers > 1:
            if op == "leave":
                cluster.remove_server(victim, rehome=True)
            else:
                cluster.fail_server(victim)
        elif op == "recover" and cluster.crashed_server_ids():
            crashed = cluster.crashed_server_ids()
            if cluster.num_servers < MAX_SERVERS:
                cluster.recover_server(crashed[draw % len(crashed)])
        elif op == "create":
            self.created += 1
            path = f"/m/d{draw % 4}/new{self.created}"
            cluster.insert_file(FileMetadata(path=path, inode=draw), victim)
            self.deleted.discard(path)
        elif op == "delete":
            stored = self.stored()
            if stored:
                path = stored[draw % len(stored)]
                cluster.delete_file(path)
                self.deleted.add(path)
        elif op == "rename":
            old = f"/m/d{draw % 4}"
            renamed = {
                path
                for server in cluster.servers.values()
                for path in server.store.paths_under(old)
            }
            cluster.rename_subtree(old, f"/m/r{draw}")
            self.deleted |= renamed
        elif op == "sync":
            cluster.synchronize_replicas(force=True)
        elif op == "rebuild":
            cluster.servers[victim].rebuild_local_filter()
        elif op == "checkpoint":
            self.cluster = checkpoint.restore(checkpoint.snapshot(cluster))
            self.restored = True

    def probe_paths(self, rng):
        stored = self.stored()
        deleted = sorted(self.deleted)
        picked = rng.sample(stored, min(4, len(stored)))
        picked += rng.sample(deleted, min(3, len(deleted)))
        return picked + list(NEVER_CREATED)


def _l2_counts(cluster, member_ids):
    family = cluster.metrics.get("ghba_server_probes_total")
    if family is None:  # a restored cluster whose servers count nothing
        return dict.fromkeys(member_ids, 0.0)
    return {sid: family.get(sid, "l2") for sid in member_ids}


def _check_group(script, group, path, reached):
    cluster = script.cluster
    member_ids = group.member_ids()
    before = _l2_counts(cluster, member_ids)
    got = group.multicast_query(path, member_ids=reached)
    after_multicast = _l2_counts(cluster, member_ids)

    probed = []
    for sid in member_ids if reached is None else reached:
        member = group.get_member(sid)
        lookup = member.probe_segment(path)
        # The member's own probe against its filters, one by one: what a
        # stale array snapshot would disagree with.
        one_by_one = [
            home for home, bloom in member.segment.items() if bloom.query(path)
        ]
        if member.local_filter.query(path):
            one_by_one.append(sid)
        assert lookup.hits == tuple(sorted(one_by_one)), (sid, path)
        assert lookup.probes == len(member.segment) + 1, (sid, path)
        probed.append(lookup)
    after_probes = _l2_counts(cluster, member_ids)
    want_hits = tuple(sorted({hit for lookup in probed for hit in lookup.hits}))
    assert got.hits == want_hits, (path, reached)
    assert got.probes == sum(lookup.probes for lookup in probed), (path, reached)

    reached_set = set(member_ids if reached is None else reached)
    for sid in member_ids:
        rise = after_multicast[sid] - before[sid]
        if sid not in reached_set:
            assert rise == 0, sid
            continue
        assert rise == after_probes[sid] - after_multicast[sid], sid
        if not script.restored:
            assert rise == 1, sid


@given(
    servers=st.integers(min_value=1, max_value=MAX_SERVERS),
    max_group_size=st.sampled_from([2, 3, 4]),
    seed=st.integers(min_value=0, max_value=31),
    ops=ops_strategy,
)
@settings(max_examples=60, deadline=None)
def test_multicast_is_the_union_of_its_members_probes(
    servers, max_group_size, seed, ops
):
    script = _Script(servers, max_group_size, seed)
    rng = random.Random(seed)
    for op, draw in ops:
        script.apply(op, draw)
        script.cluster.check_invariants()
        paths = script.probe_paths(rng)
        for group in script.cluster.groups.values():
            member_ids = group.member_ids()
            subset = rng.sample(member_ids, rng.randint(1, len(member_ids)))
            for path in paths:
                _check_group(script, group, path, None)
                _check_group(script, group, path, subset)


def test_scripts_reach_replicas_and_hits():
    """Not vacuous: a script leaves groups that host replicas, stored
    paths that hit a replica, and deleted paths whose stale bits still
    hit."""
    script = _Script(7, 3, 1)
    for op, draw in [("delete", 3), ("rename", 1), ("join", 0), ("crash", 2)]:
        script.apply(op, draw)
    replicas = replica_hits = stale_hits = 0
    for group in script.cluster.groups.values():
        members = set(group.member_ids())
        replicas += len(group.hosted_replica_ids())
        for path in script.stored():
            replica_hits += bool(set(group.multicast_query(path).hits) - members)
        for path in script.deleted:
            stale_hits += bool(group.multicast_query(path).hits)
    assert replicas > 0
    assert replica_hits > 0
    assert stale_hits > 0
