"""Differential oracle: the planned reconfiguration vs the frozen one.

ISSUE 17 moved every reconfiguration choice of the simulator into
``repro.core.reconfiguration`` — ``GHBACluster.add_server`` /
``remove_server`` / ``fail_server`` now ask for a plan and carry out its
steps.  ``tests/_reference_reconfig.py`` is the code that replaced,
frozen; this suite replays seeded add / remove / fail / recover scripts
(with inserts, queries and replica syncs between them) through a live
cluster and a twin reconfigured by the frozen functions, over fleets from
2 servers up and M from 1 (every join founds a group, every departure
dissolves one) to 8, and diffs after every op:

- the op's own return value — every field of the ``ReconfigReport``;
- group membership, ``next_group_id`` and each group's IDBFA placements
  *in order* (a host's replicas in arrival order decide who inherits
  which when it leaves);
- per server: the hosted replicas in order and their bits, the stored
  records, the L1 entries; the crashed stores awaiting recovery;
- the ``MutationEvent`` stream;
- the ``(found, home, level)`` of a sample of queries;

and requires of the live cluster alone that ``check_invariants()`` holds.
``golden_counters.json`` holds no join or leave, so this file is what
says the plan is the old algorithm, choice for choice.
"""

import random

import pytest

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.group import GroupError
from repro.metadata.attributes import FileMetadata

from tests import _reference_reconfig as ref
from tests._harness import check, pick, replay

#: (initial servers, M) — M = 1 and 2 dissolve a last member's group on
#: most departures; (8, 8) and (7, 7) split a single full group.
SHAPES = (
    (2, 1), (4, 1), (3, 2), (9, 2), (6, 3), (10, 4), (12, 4), (13, 6),
    (20, 7), (7, 7), (8, 8), (23, 8),
)
SEEDS = range(3)
PATHS = tuple(f"/d{i % 7}/f{i}" for i in range(60))


def _generate_ops(seed, length=40):
    rng = random.Random(seed)
    ops = [("sync", True)]
    for _ in range(length):
        roll = rng.random()
        if roll < 0.30:
            ops.append(("add", None))
        elif roll < 0.52:
            ops.append(("remove", (rng.random(), rng.random() < 0.85)))
        elif roll < 0.64:
            ops.append(("fail", rng.random()))
        elif roll < 0.72:
            ops.append(("recover", rng.random()))
        elif roll < 0.80:
            ops.append(("insert", (rng.randrange(1000), rng.random())))
        elif roll < 0.86:
            ops.append(("sync", rng.random() < 0.5))
        else:
            ops.append(("query", (rng.choice(PATHS), rng.random())))
    return ops


class _Twins:
    """The live cluster and the twin reconfigured by the frozen code."""

    def __init__(self, shape, seed):
        servers, max_group_size = shape
        config = GHBAConfig(
            max_group_size=max_group_size,
            expected_files_per_mds=64,
            lru_capacity=16,
            lru_filter_bits=1 << 8,
            lru_num_hashes=3,
            update_threshold_bits=8,
            seed=seed,
        )
        self.live = GHBACluster(servers, config, seed=seed)
        self.twin = GHBACluster(servers, config, seed=seed)
        self.live_events, self.twin_events = [], []
        self.live.add_mutation_listener(self.live_events.append)
        self.twin.add_mutation_listener(self.twin_events.append)
        for cluster in (self.live, self.twin):
            cluster.populate(PATHS)

    def apply(self, op, arg):
        live, twin = self.live, self.twin
        if op == "add":
            got, want = live.add_server(), ref.ref_add_server(twin)
        elif op in ("remove", "fail"):
            if live.num_servers < 2:
                return None
            draw, rehome = arg if op == "remove" else (arg, None)
            victim = pick(live.server_ids(), draw)
            departed = twin.servers[victim]
            if op == "remove":
                got = live.remove_server(victim, rehome=rehome)
                want = ref.ref_remove_server(twin, victim, rehome=rehome)
            else:
                got = live.fail_server(victim)
                want = ref.ref_fail_server(twin, victim)
            # The frozen code predates the cell index: take the departed
            # server out of it as the live departure does.
            twin.index.leave(departed)
        elif op == "recover":
            crashed = live.crashed_server_ids()
            if not crashed:
                return None
            victim = pick(crashed, arg)
            got = live.recover_server(victim)
            want = ref.ref_recover_server(twin, victim)
        elif op == "insert":
            inode, draw = arg
            meta = FileMetadata(path=f"/new/f{inode}", inode=inode)
            home = pick(live.server_ids(), draw)
            got = live.insert_file(meta, home_id=home)
            want = twin.insert_file(meta, home_id=home)
        elif op == "sync":
            got = live.synchronize_replicas(force=arg)
            want = twin.synchronize_replicas(force=arg)
        elif op == "query":
            path, draw = arg
            origin = pick(live.server_ids(), draw)
            got, want = (
                (r.found, r.home_id, r.level, r.messages)
                for r in (live.query(path, origin), twin.query(path, origin))
            )
        else:  # pragma: no cover - generator and runner must stay in sync
            return f"unknown op {op!r}"
        if got != want:
            return f"returned {got!r}, reference {want!r}"
        return None

    def check_state(self):
        live, twin = self.live, self.twin
        if self.live_events != self.twin_events:
            return (
                f"event stream tail {self.live_events[-3:]} "
                f"!= reference {self.twin_events[-3:]}"
            )
        if live.server_ids() != twin.server_ids():
            return "server ids diverged"
        if (live._next_group_id, live._group_of) != (
            twin._next_group_id, twin._group_of
        ):
            return f"group index {live._group_of}, reference {twin._group_of}"
        if live._crashed_stores != twin._crashed_stores:
            return "crashed stores diverged"
        mine, theirs = (
            {
                gid: (group.member_ids(), list(group.idbfa.placements().items()))
                for gid, group in cluster.groups.items()
            }
            for cluster in (live, twin)
        )
        if mine != theirs or list(mine) != list(theirs):
            return f"directory {mine}, reference {theirs}"
        for server_id in live.server_ids():
            mine, theirs = live.servers[server_id], twin.servers[server_id]
            if mine.hosted_replicas() != theirs.hosted_replicas():
                return (
                    f"MDS {server_id} hosts {mine.hosted_replicas()}, "
                    f"reference {theirs.hosted_replicas()}"
                )
            for home_id, replica in mine.segment.items():
                if replica.bits != theirs.segment.get_replica(home_id).bits:
                    return f"MDS {server_id} replica of {home_id} diverged"
            if mine.published_filter.bits != theirs.published_filter.bits:
                return f"MDS {server_id} published filter diverged"
            if list(mine.store.records()) != list(theirs.store.records()):
                return f"MDS {server_id} records diverged"
            if list(mine.lru._entries.items()) != list(theirs.lru._entries.items()):
                return f"MDS {server_id} L1 entries diverged"
        origin = live.server_ids()[0]
        for path in PATHS[::9]:
            mine, theirs = (
                (r.found, r.home_id, r.level, r.messages)
                for r in (live.query(path, origin), twin.query(path, origin))
            )
            if mine != theirs:
                return f"query {path}: {mine}, reference {theirs}"
        try:
            live.check_invariants()
        except GroupError as error:
            return f"invariant: {error}"
        return None


def _run(shape, seed, ops):
    twins = _Twins(shape, seed)
    return replay(ops, lambda op: twins.apply(*op) or twins.check_state())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"N{s[0]}-M{s[1]}")
def test_planned_reconfiguration_matches_the_frozen_one(shape, seed):
    ops = _generate_ops(seed * 100 + shape[0])
    check((shape, seed), ops, lambda c: _run(shape, seed, c))


def test_scripts_reach_the_cases_that_matter():
    """Not vacuous: joins that split, departures that merge, a last
    member leaving and crashing (its group dissolves), the M = 1 split
    that moves nobody, recoveries, removals that re-home records."""
    split = merged = dissolved = crashed_alone = founded = recovered = rehomed = 0
    for shape in SHAPES:
        for seed in SEEDS:
            twins = _Twins(shape, seed)
            live = twins.live
            for op, arg in _generate_ops(seed * 100 + shape[0]):
                alone = False
                if op in ("remove", "fail") and live.num_servers > 1:
                    draw = arg[0] if op == "remove" else arg
                    victim = pick(live.server_ids(), draw)
                    alone = live.group_of(victim).size == 1
                    dissolved += alone and op == "remove"
                    crashed_alone += alone and op == "fail"
                    if op == "remove" and arg[1]:
                        rehomed += live.servers[victim].file_count
                recovered += op == "recover" and bool(live.crashed_server_ids())
                groups = live.num_groups
                assert twins.apply(op, arg) is None
                if op == "add":
                    split += live.num_groups > groups
                    founded += shape[1] == 1
                elif op in ("remove", "fail"):
                    merged += live.num_groups < groups and not alone
    counts = (split, merged, dissolved, crashed_alone, founded, recovered, rehomed)
    assert min(counts) > 0, counts
