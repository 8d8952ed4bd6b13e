"""Differential oracle: HBA as G-HBA at M = 1 vs the frozen HBA cluster.

ISSUE 18 deleted the simulator's second cluster class:
``repro.baselines.hba.HBACluster`` is now a ``GHBACluster`` whose
``max_group_size`` is 1.  ``tests/_reference_hba.py`` is the class that
replaced, frozen — its own L1 -> L2 -> L4 walk, update / sync / join
accounting and ``Counter`` / ``LatencyRecorder`` bookkeeping.  This suite
drives both through seeded scripts — populate (both policies), inserts
with and without a home, deletes that no sync follows (stale replicas and
stale L1 entries: the false-forward paths), queries with and without an
origin (the clusters' own RNG streams must stay in step), with and
without a memory budget of 60 % of the
working set, ``update_server_replicas``, ``synchronize_replicas`` under the
XOR threshold, ``add_server``, ``remove_server`` — and compares:

- every ``QueryResult`` as a tuple, ``latency_ms`` with ``==``;
- each update / sync / join report's messages, latency and migrated count;
- after every op, per server: hosted replicas and their bits, published
  filter, records, L1 entries, and ``memory_bytes_per_server()``;
- at the end: level fractions, latency count / mean / p95, total messages
  and total false forwards.

A departure is compared on state only.  Its message count is the one HBA
number that moved: the frozen class counts the survivors' N - 1 drops, the
plan also charges the N - 1 drops the departing MDS makes.
"""

import dataclasses
import random

import pytest

from repro.baselines.hba import HBACluster
from repro.core.config import GHBAConfig
from repro.core.query import QueryLevel
from repro.metadata.attributes import FileMetadata

from tests._reference_hba import HBACluster as ReferenceHBACluster
from tests._harness import check, pick, replay

#: (servers, populate policy, memory budget as a share of the working set
#: or None).
SHAPES = (
    (1, "random", None),
    (4, "round_robin", None),
    (10, "random", None),
    (10, "round_robin", 0.6),
    (16, "random", 0.6),
    (30, "round_robin", None),
)
SEEDS = range(3)
PATHS = tuple(f"/d{i % 7}/f{i}" for i in range(240))


def _config(seed, budget=None):
    return GHBAConfig(
        max_group_size=4,  # ignored by both: HBA has no groups
        expected_files_per_mds=64,
        lru_capacity=16,
        lru_filter_bits=1 << 8,
        lru_num_hashes=3,
        update_threshold_bits=8,
        memory_budget_bytes=budget,
        seed=seed,
    )


def _generate_ops(seed, length=160):
    rng = random.Random(seed)
    ops = [("sync", True)]
    created = []  # queried before any sync publishes them: L4 finds them
    for _ in range(length):
        roll = rng.random()
        if roll < 0.50:
            kind = rng.random()
            if kind < 0.15 and created:
                path = f"/new/f{rng.choice(created)}"
            elif kind < 0.25:
                path = f"/no/f{rng.randrange(9)}"
            else:
                path = rng.choice(PATHS)
            origin = rng.random() if rng.random() < 0.5 else None
            ops.append(("query", (path, origin)))
        elif roll < 0.62:
            created.append(len(created))
            home = rng.random() if rng.random() < 0.5 else None
            ops.append(("insert", (created[-1], home)))
        elif roll < 0.70:
            ops.append(("delete", rng.choice(PATHS)))
        elif roll < 0.74:
            # Learn it, lose it, ask again from the same origin: L1 is
            # refuted, then L2 (both name the old home) - two false forwards.
            path, origin = rng.choice(PATHS), rng.random()
            ops += [("query", (path, origin)), ("delete", path), ("query", (path, origin))]
        elif roll < 0.82:
            ops.append(("update", rng.random()))
        elif roll < 0.90:
            ops.append(("sync", rng.random() < 0.3))
        elif roll < 0.96:
            ops.append(("add", None))
        else:
            ops.append(("remove", rng.random()))
    return ops


class _Twins:
    """The live M = 1 cluster and the frozen HBA class, built alike."""

    def __init__(self, shape, seed):
        servers, policy, budget_share = shape
        budget = None
        if budget_share is not None:
            probe = ReferenceHBACluster(servers, _config(seed), seed=seed)
            probe.populate(PATHS, policy)
            working_set = sum(
                server.footprint_bytes for server in probe.servers.values()
            ) / servers
            budget = int(working_set * budget_share)
        config = _config(seed, budget)
        self.live = HBACluster(servers, config, seed=seed)
        self.twin = ReferenceHBACluster(servers, config, seed=seed)
        assert self.live.populate(PATHS, policy) == self.twin.populate(PATHS, policy)

    def apply(self, op, arg):
        live, twin = self.live, self.twin
        if op == "query":
            path, draw = arg
            origin = None if draw is None else pick(live.server_ids(), draw)
            # As tuples: QueryResult's repr rounds what a failure must show.
            self.last_result = live.query(path, origin)
            got = tuple(self.last_result)
            want = tuple(twin.query(path, origin))
        elif op == "insert":
            inode, draw = arg
            meta = FileMetadata(path=f"/new/f{inode}", inode=inode)
            home = None if draw is None else pick(live.server_ids(), draw)
            got = live.insert_file(dataclasses.replace(meta), home_id=home)
            want = twin.insert_file(dataclasses.replace(meta), home_id=home)
        elif op == "delete":
            # At the home only, as the frozen class has no delete of its
            # own: replicas and L1 entries elsewhere stay stale.
            got, want = (
                [s.remove_metadata(arg) for s in cluster.servers.values()]
                for cluster in (live, twin)
            )
        elif op == "update":
            server_id = pick(live.server_ids(), arg)
            report = live.update_server_replicas(server_id)
            got = {"messages": report.messages, "latency_ms": report.latency_ms}
            want = twin.update_server_replicas(server_id)
        elif op == "sync":
            report = live.synchronize_replicas(force=arg)
            got = {
                "servers_updated": report.servers_updated,
                "messages": report.messages,
                "latency_ms": report.latency_ms,
            }
            want = twin.synchronize_replicas(force=arg)
        elif op == "add":
            report = live.add_server()
            got = {
                "server_id": report.server_id,
                "migrated_replicas": report.migrated_replicas,
                "messages": report.messages,
            }
            want = twin.add_server()
        elif op == "remove":
            if live.num_servers < 2:
                return None
            victim = pick(live.server_ids(), arg)
            # The frozen class loses the departing MDS's files.
            live.remove_server(victim, rehome=False)
            twin.remove_server(victim)
            got = want = None  # state only: the count is the known difference
        else:  # pragma: no cover - generator and runner must stay in sync
            return f"unknown op {op!r}"
        if got != want:
            return f"returned {got!r}, reference {want!r}"
        return None

    def check_state(self):
        live, twin = self.live, self.twin
        if live.server_ids() != twin.server_ids():
            return "server ids diverged"
        if live.memory_bytes_per_server() != twin.memory_bytes_per_server():
            return "memory_bytes_per_server diverged"
        for server_id in live.server_ids():
            mine, theirs = live.servers[server_id], twin.servers[server_id]
            if sorted(mine.hosted_replicas()) != sorted(theirs.hosted_replicas()):
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
        return None

    def check_totals(self):
        live, twin = self.live, self.twin
        mine, theirs = (
            (
                cluster.level_fractions(),
                cluster.latency.count,
                cluster.latency.mean,
                cluster.latency.percentile(95),
                cluster.total_messages,
                cluster.total_false_forwards,
            )
            for cluster in (live, twin)
        )
        if mine != theirs:
            return f"totals {mine}, reference {theirs}"
        return None


def _run(shape, seed, ops):
    twins = _Twins(shape, seed)
    failure = replay(ops, lambda op: twins.apply(*op) or twins.check_state())
    return failure or twins.check_totals()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"N{s[0]}-{s[1]}-{s[2]}")
def test_hba_at_m1_matches_the_frozen_cluster(shape, seed):
    ops = _generate_ops(seed * 100 + shape[0])
    check((shape, seed), ops, lambda c: _run(shape, seed, c))


def test_scripts_reach_the_cases_that_matter():
    """Not vacuous: every level answers, L1 and L2 hits get refuted (twice
    in one walk, too), replicas spill to disk under the budget, the
    threshold holds a sync back and lets one through, fleets grow and
    shrink."""
    levels = set()
    refuted = refuted_twice = spilled = held_back = shipped = grew = shrank = 0
    for shape in SHAPES:
        for seed in SEEDS:
            twins = _Twins(shape, seed)
            live = twins.live
            for op, arg in _generate_ops(seed * 100 + shape[0]):
                before = live.num_servers
                if op == "sync" and not arg:
                    stale = [s.staleness_bits() for s in live.servers.values()]
                    threshold = live.config.update_threshold_bits
                    held_back += any(0 < bits <= threshold for bits in stale)
                    shipped += any(bits > threshold for bits in stale)
                assert twins.apply(op, arg) is None
                if op == "query":
                    result = twins.last_result
                    levels.add(result.level)
                    refuted += result.false_forwards >= 1
                    refuted_twice += result.false_forwards == 2
                grew += live.num_servers > before
                shrank += live.num_servers < before
            spilled += any(
                server.resident_fraction < 1.0
                for server in live.servers.values()
            )
    assert levels == set(QueryLevel) - {QueryLevel.L3}, levels
    counts = (refuted, refuted_twice, spilled, held_back, shipped, grew, shrank)
    assert min(counts) > 0, counts
