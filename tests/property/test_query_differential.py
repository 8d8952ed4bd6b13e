"""Differential oracle: ``GHBACluster.query`` over ``repro.core.walk`` vs the
frozen inline walk.

ISSUE 21 moved the L1 -> L4 decision sequence out of ``GHBACluster.query``
into ``repro.core.walk.walk``; the method now builds an executor and books
what each step costs.  ``tests/_reference_query.py`` holds the method as it
stood before, verbatim, on a subclass.  This suite builds the two clusters
alike — each with its own metrics registry, collecting tracer and fault
injector — and drives them through seeded scripts: populate, inserts the
next sync has not published, deletes through the cluster (stale replicas:
L2 and L3 are refuted) and at the home only (stale L1 entries: L1 is
refuted and forgotten), subtree renames, syncs under the XOR threshold,
joins and departures with splits and merges, a fault plan whose partition
window opens and closes, a silenced MDS, per-leg message loss, cooperative
LRU hints, M = 1, N = 1, tracing on and off.  After
every op it compares with ``==``:

- the ``QueryResult`` as a tuple (``latency_ms`` bit for bit);
- the registry's full ``snapshot()`` — every counter series that exists and
  every histogram summary, so a child created one query early shows;
- every event of the query's span (kind, target, latency, messages, detail)
  and the span's own totals;
- the L1 entries of *every* MDS, in order (cooperative hints land on peers);
- the injector's tallies and the next draw of the cluster's RNG.
"""

import dataclasses
import random

import pytest

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.query import QueryLevel
from repro.faults import FaultPlan, Partition, PlanFaultInjector
from repro.metadata.attributes import FileMetadata
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import CollectingTracer

from tests._reference_query import ReferenceQueryCluster
from tests._harness import check, pick, replay


@dataclasses.dataclass(frozen=True)
class Shape:
    servers: int
    group_size: int
    cooperative: bool = False
    faults: bool = False
    drop_rate: float = 0.0
    traced: bool = True

    def __str__(self):
        flags = "".join(
            flag
            for flag, on in (
                ("-coop", self.cooperative),
                ("-faults", self.faults),
                ("-loss", self.drop_rate),
                ("-untraced", not self.traced),
            )
            if on
        )
        return f"N{self.servers}-M{self.group_size}{flags}"


SHAPES = (
    Shape(1, 4),
    Shape(6, 1),
    Shape(9, 4),
    Shape(9, 4, traced=False, faults=True),
    Shape(10, 3, cooperative=True),
    Shape(12, 4, faults=True),
    Shape(12, 4, faults=True, drop_rate=0.08, cooperative=True),
    Shape(14, 7, faults=True),
)
SEEDS = range(5)
PATHS = tuple(f"/d{i % 7}/s{i % 3}/f{i}" for i in range(260))
#: The fault plan's partition window, in the injector's virtual seconds.
WINDOW = (10.0, 20.0)


def _config(shape, seed):
    return GHBAConfig(
        max_group_size=shape.group_size,
        expected_files_per_mds=64,
        lru_capacity=16,
        lru_filter_bits=1 << 8,
        lru_num_hashes=3,
        update_threshold_bits=8,
        cooperative_fanout=2 if shape.cooperative else 0,
        seed=seed,
    )


def _generate_ops(shape, seed, length=170):
    rng = random.Random(seed * 1000 + shape.servers * 10 + shape.group_size)
    ops = [("sync", True)]
    created = []
    renames = 0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.52:
            kind = rng.random()
            if kind < 0.12 and created:
                path = f"/new/f{rng.choice(created)}"
            elif kind < 0.22:
                path = f"/no/f{rng.randrange(9)}"
            elif kind < 0.30 and renames:
                path = rng.choice(PATHS).replace("/d0/", "/r0/", 1)
            else:
                path = rng.choice(PATHS)
            origin = rng.random() if rng.random() < 0.6 else None
            ops.append(("query", (path, origin)))
        elif roll < 0.60:
            created.append(len(created))
            home = rng.random() if rng.random() < 0.5 else None
            ops.append(("insert", (created[-1], home)))
        elif roll < 0.66:
            ops.append(("delete", rng.choice(PATHS)))
        elif roll < 0.74:
            # Learn it, lose it at the home only, ask again twice from the
            # same origin: L1 is refuted and forgotten, then L2 / L3 name
            # the old home again; the repeat no longer starts at L1.
            path, origin = rng.choice(PATHS), rng.random()
            ops += [
                ("query", (path, origin)),
                ("delete_at_home", path),
                ("query", (path, origin)),
                ("query", (path, origin)),
            ]
        elif roll < 0.77:
            renames += 1
            ops.append(("rename", ("/d0", "/r0") if renames % 2 else ("/r0", "/d0")))
        elif roll < 0.83:
            ops.append(("sync", rng.random() < 0.3))
        elif roll < 0.88:
            ops.append(("add", None))
        elif roll < 0.92:
            ops.append(("remove", rng.random()))
        elif shape.faults:
            kind = rng.random()
            if kind < 0.35:
                ops.append(("clock", WINDOW[0] + 1.0))  # the partition opens
            elif kind < 0.6:
                ops.append(("clock", WINDOW[1] + 1.0))  # ... and closes
            elif kind < 0.85:
                ops.append(("silence", rng.random()))
            else:
                ops.append(("restore", None))
    return ops


def _span_dump(tracer):
    """The last span, event by event, then cleared (a span per query)."""
    if not tracer.enabled:
        return None
    dump = [
        (
            span.path, span.origin_id, span.level, span.home_id, span.latency_ms,
            span.messages, span.false_forwards, span.finished,
            [dataclasses.astuple(event) for event in span.events],
        )
        for span in tracer.spans
    ]
    tracer.clear()
    return dump


class _Twins:
    """The live cluster and the frozen-walk subclass, built alike."""

    def __init__(self, shape, seed):
        self.shape = shape
        self.clusters = []
        for cls in (GHBACluster, ReferenceQueryCluster):
            kwargs = {"metrics": MetricsRegistry()}
            if shape.traced:
                kwargs["tracer"] = CollectingTracer()
            if shape.faults:
                # The island: the lowest third of the initial ids — part of
                # one group and, past a split or merge, parts of several.
                island = frozenset(range(max(1, shape.servers // 3)))
                plan = FaultPlan(
                    seed=seed,
                    drop_rate=shape.drop_rate,
                    partitions=(Partition(WINDOW[0], WINDOW[1], island),),
                )
                kwargs["faults"] = PlanFaultInjector(plan, metrics=kwargs["metrics"])
            cluster = cls(shape.servers, _config(shape, seed), seed=seed, **kwargs)
            cluster.populate(PATHS, "random" if seed % 2 else "round_robin")
            self.clusters.append(cluster)
        self.live, self.twin = self.clusters
        self.silenced = []
        self.last_result = None

    def _both(self, call):
        return [call(cluster) for cluster in self.clusters]

    def apply(self, op, arg):
        live = self.live
        if op == "query":
            path, draw = arg
            origin = None if draw is None else pick(live.server_ids(), draw)
            # As tuples: QueryResult's repr rounds what a failure must show.
            got, want = self._both(lambda c: tuple(c.query(path, origin)))
            self.last_result = live_result = got
            if got != want:
                return f"returned {live_result!r}, reference {want!r}"
            got, want = self._both(lambda c: _span_dump(c.tracer))
            if got != want:
                return f"span {got!r}, reference {want!r}"
            return None
        if op == "insert":
            inode, draw = arg
            meta = FileMetadata(path=f"/new/f{inode}", inode=10_000 + inode)
            home = None if draw is None else pick(live.server_ids(), draw)
            got, want = self._both(
                lambda c: c.insert_file(dataclasses.replace(meta), home_id=home)
            )
        elif op == "delete":
            got, want = self._both(lambda c: c.delete_file(arg))
        elif op == "delete_at_home":
            # Out of band: replicas *and* L1 entries elsewhere stay stale.
            got, want = self._both(
                lambda c: [s.remove_metadata(arg) for s in c.servers.values()]
            )
        elif op == "rename":
            got, want = self._both(lambda c: c.rename_subtree(*arg))
        elif op == "sync":
            got, want = self._both(
                lambda c: dataclasses.astuple(c.synchronize_replicas(force=arg))
            )
        elif op == "add":
            got, want = self._both(lambda c: dataclasses.astuple(c.add_server()))
        elif op == "remove":
            if live.num_servers < 2:
                return None
            victim = pick(live.server_ids(), arg)
            if victim in self.silenced:
                self.silenced.remove(victim)
            got, want = self._both(
                lambda c: dataclasses.astuple(c.remove_server(victim))
            )
        elif op == "clock":
            if arg < live.faults.now:
                return None
            got, want = self._both(lambda c: c.faults.advance(arg))
        elif op == "silence":
            victim = pick(live.server_ids(), arg)
            self.silenced.append(victim)
            got, want = self._both(lambda c: c.faults.silence(victim))
        elif op == "restore":
            if not self.silenced:
                return None
            victim = self.silenced.pop(0)
            got, want = self._both(lambda c: c.faults.restore(victim))
        else:  # pragma: no cover - generator and runner must stay in sync
            return f"unknown op {op!r}"
        if got != want:
            return f"returned {got!r}, reference {want!r}"
        return None

    def check_state(self):
        live, twin = self.live, self.twin
        if live.metrics.snapshot() != twin.metrics.snapshot():
            mine, theirs = live.metrics.snapshot(), twin.metrics.snapshot()
            moved = [name for name in mine if mine[name] != theirs.get(name)]
            return f"metrics diverged in {moved}: {[mine[n] for n in moved]}"
        if live.server_ids() != twin.server_ids():
            return "server ids diverged"
        for server_id in live.server_ids():
            mine = list(live.servers[server_id].lru._entries.items())
            theirs = list(twin.servers[server_id].lru._entries.items())
            if mine != theirs:
                return f"MDS {server_id} L1 entries {mine}, reference {theirs}"
        if self.shape.faults and live.faults.counts != twin.faults.counts:
            return f"injector tallies {live.faults.counts}, {twin.faults.counts}"
        if live._rng.getstate() != twin._rng.getstate():
            return "the clusters' RNG streams fell out of step"
        return None


def _run(shape, seed, ops):
    twins = _Twins(shape, seed)
    return replay(ops, lambda op: twins.apply(*op) or twins.check_state())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_query_over_the_walk_matches_the_frozen_inline_walk(shape, seed):
    check((shape, seed), _generate_ops(shape, seed), lambda c: _run(shape, seed, c))


def test_scripts_reach_the_cases_that_matter():
    """Not vacuous: every level answers; L1, L2 and L3 hits get refuted
    (three times in one walk, too); a forward and multicast legs are lost
    and queries degrade — some still answered at L3 from a partial
    multicast; cooperative hints are sent; fleets split and merge."""
    levels = set()
    refuted = thrice = degraded = partial_l3 = hints = forgot = 0
    lost_forward = split = merged = 0
    for shape in SHAPES:
        for seed in SEEDS:
            twins = _Twins(shape, seed)
            live = twins.live
            for op, arg in _generate_ops(shape, seed):
                groups = live.num_groups
                l1_before = sum(len(s.lru) for s in live.servers.values())
                assert twins.apply(op, arg) is None
                if op == "query":
                    path, home, level, _, _, false_forwards, _, was_degraded = (
                        twins.last_result
                    )
                    levels.add(level)
                    refuted += false_forwards >= 1
                    thrice += false_forwards >= 3
                    degraded += was_degraded
                    partial_l3 += was_degraded and level is QueryLevel.L3
                    forgot += home is None and (
                        sum(len(s.lru) for s in live.servers.values()) < l1_before
                    )
                elif op in ("add", "remove"):
                    split += live.num_groups > groups
                    merged += live.num_groups < groups
            snapshot = live.metrics.snapshot()
            hints += bool(snapshot["ghba_lru_hints_total"]["series"])
            lost_forward += snapshot.get("fault_injected_total", {}).get(
                "series", {}
            ).get("multicast_lost|loss", 0) > 0
    assert levels == set(QueryLevel), levels
    counts = (
        refuted, thrice, degraded, partial_l3, hints, forgot, lost_forward,
        split, merged,
    )
    assert min(counts) > 0, counts
