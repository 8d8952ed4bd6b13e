"""Differential oracle: the index-backed rename vs the frozen scanning one.

ISSUE 16 made ``GHBACluster.rename_subtree_at`` take its victims from the
home store's sorted path index and re-key them through one
``MetadataServer.rekey_subtree`` (store, local filter, byte accounting).
``tests/_reference_rename.py`` is the scanning code it replaced, frozen;
this suite replays seeded mixed traces — insert, delete, cluster-wide
and per-home rename, query, replica sync, join, leave — through a live
cluster and a twin whose renames go through the frozen functions, and
diffs after every op:

- each op's own return value (rename counts, delete homes, the
  ``(found, home, level)`` of a query, the reconfiguration reports);
- the ``ChangeEvent`` and ``MutationEvent`` streams, in order;
- every path version the cluster has ever issued;
- per home: the store's records by path, the store's access statistics,
  the local filter's bits, the L1 array's entries in recency order and
  its per-home counting filters' counters;

and requires of the live cluster alone that ``check_invariants()`` holds
— which since ISSUE 16 includes ``_metadata_bytes == Σ size_bytes()`` per
server, the accounting the frozen rename gets wrong (the harness repairs
the twin's count after each frozen rename so its later deletes can
proceed).  The frozen rename also adds the new names to a local filter
by hand, around the cluster's cell index, so the harness hands the
twin's index the bits each frozen rename set.

Re-key *order* is the one declared difference: the frozen code walks the
store in recency order, the live code in sorted path order.  The trace
includes the places where order can be observed in contents, and levels
the two stores' recency (a ``get`` of every record in sorted order, on
both sides) immediately before them, so everything else stays comparable:
``remove_server`` pairs the departing server's records with their new
homes in recency order, and a rename whose two prefixes *contain one
another* (``/a → /a/b``, ``/a/b → /a``) has victims that are also targets:
``/a → /a/b`` overwrites ``/a/b/x`` with ``/a/x`` or moves it out of the
way first, depending on which of the two it meets first.  Every other
rename — including one onto names that already exist — runs unlevelled.
"""

import random

import pytest

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.group import GroupError
from repro.metadata.attributes import FileMetadata

from tests._reference_rename import ref_rename_subtree, ref_rename_subtree_at
from tests._harness import check, pick, replay

SEEDS = range(24)
SERVERS = 5

DIRS = ("/a", "/a/b", "/a/b/b", "/a.mv", "/c", "/c/a")
FILES = tuple(f"{d}/f{i}" for d in DIRS for i in range(4)) + ("/a/b", "/c")
#: Onto existing names, into the own subtree and back out, next to the
#: ``.mv`` sibling, one file, and a prefix nothing lives under.
RENAMES = (
    ("/a", "/c"), ("/c", "/a"), ("/a", "/a/b"), ("/a/b", "/a"),
    ("/c", "/c/a"), ("/a", "/a.mv"), ("/a.mv", "/a"), ("/a/b", "/c"),
    ("/a/f1", "/c/f1"), ("/a/b", "/a/b/b"), ("/nowhere", "/a"),
)


def _generate_ops(seed, length=120):
    rng = random.Random(seed)
    ops = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.34:
            ops.append(("insert", (rng.choice(FILES), rng.randrange(64), rng.random())))
        elif roll < 0.46:
            ops.append(("delete", rng.choice(FILES)))
        elif roll < 0.62:
            ops.append(("rename", rng.choice(RENAMES)))
        elif roll < 0.68:
            ops.append(("rename_at", (rng.random(), *rng.choice(RENAMES))))
        elif roll < 0.90:
            ops.append(("query", (rng.choice(FILES), rng.random())))
        elif roll < 0.94:
            ops.append(("sync", rng.random() < 0.5))
        elif roll < 0.97:
            ops.append(("add", None))
        else:
            ops.append(("remove", rng.random()))
    return ops


class _Twins:
    """The live cluster and the twin renamed by the frozen functions."""

    def __init__(self, seed):
        config = GHBAConfig(
            max_group_size=3,
            expected_files_per_mds=64,
            lru_capacity=16,
            lru_filter_bits=1 << 8,
            lru_num_hashes=3,
            update_threshold_bits=8,
            seed=seed,
        )
        self.live = GHBACluster(SERVERS, config, seed=seed)
        self.twin = GHBACluster(SERVERS, config, seed=seed)
        self.live_events, self.twin_events = [], []
        for cluster, log in (
            (self.live, self.live_events), (self.twin, self.twin_events)
        ):
            cluster.add_change_listener(log.append)
            cluster.add_mutation_listener(log.append)

    def _level(self, server_id):
        """Same recency order in both stores of ``server_id``."""
        for cluster in (self.live, self.twin):
            store = cluster.servers[server_id].store
            for path in sorted(store.paths()):
                store.get(path)

    def _repair_twin(self, bits_before):
        for sid, server in self.twin.servers.items():
            server._metadata_bytes = sum(
                meta.size_bytes() for meta in server.store.records()
            )
            self.twin.index.local_changed(
                sid, bits_before[sid] ^ server.local_filter.bits
            )

    def apply(self, op, arg):
        live, twin = self.live, self.twin
        if op == "insert":
            path, inode, draw = arg
            meta = FileMetadata(path=path, inode=inode)
            home = pick(live.server_ids(), draw)
            got = live.insert_file(meta, home_id=home)
            want = twin.insert_file(meta, home_id=home)
        elif op == "delete":
            got, want = live.delete_file(arg), twin.delete_file(arg)
        elif op in ("rename", "rename_at"):
            old, new = arg[-2:]
            if new.startswith(old + "/") or old.startswith(new + "/"):
                for server_id in live.server_ids():
                    self._level(server_id)
            bits_before = {
                sid: server.local_filter.bits for sid, server in twin.servers.items()
            }
            if op == "rename":
                got = live.rename_subtree(old, new)
                want = ref_rename_subtree(twin, old, new)
            else:
                home = pick(live.server_ids(), arg[0])
                got = live.rename_subtree_at(home, old, new)
                want = ref_rename_subtree_at(twin, home, old, new)
            self._repair_twin(bits_before)
        elif op == "query":
            path, draw = arg
            origin = pick(live.server_ids(), draw)
            got, want = (
                (r.found, r.home_id, r.level)
                for r in (live.query(path, origin), twin.query(path, origin))
            )
        elif op == "sync":
            got = live.synchronize_replicas(force=arg)
            want = twin.synchronize_replicas(force=arg)
        elif op == "add":
            got, want = live.add_server(), twin.add_server()
        elif op == "remove":
            if live.num_servers <= 2:
                return None
            victim = pick(live.server_ids(), arg)
            self._level(victim)
            got, want = live.remove_server(victim), twin.remove_server(victim)
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
        if live._path_versions != twin._path_versions:
            return "path versions diverged"
        if live.server_ids() != twin.server_ids():
            return "membership diverged"
        for server_id in live.server_ids():
            mine, theirs = live.servers[server_id], twin.servers[server_id]
            if {m.path: m for m in mine.store.records()} != {
                m.path: m for m in theirs.store.records()
            }:
                return (
                    f"MDS {server_id} holds {sorted(mine.store.paths())}, "
                    f"reference {sorted(theirs.store.paths())}"
                )
            if mine.local_filter.bits != theirs.local_filter.bits:
                return f"MDS {server_id} local filter bits diverged"
            if list(mine.lru._entries.items()) != list(theirs.lru._entries.items()):
                return f"MDS {server_id} L1 entries diverged"
            if {h: f.counters() for h, f in mine.lru._filters.items()} != {
                h: f.counters() for h, f in theirs.lru._filters.items()
            }:
                return f"MDS {server_id} L1 counting filters diverged"
        try:
            live.check_invariants()
        except GroupError as error:
            return f"invariant: {error}"
        return None


def _run(seed, ops):
    twins = _Twins(seed)
    return replay(ops, lambda op: twins.apply(*op) or twins.check_state())


@pytest.mark.parametrize("seed", SEEDS)
def test_indexed_rename_matches_the_frozen_scan(seed):
    check(seed, _generate_ops(seed), lambda c: _run(seed, c))


def test_traces_reach_the_cases_that_matter():
    """Not vacuous: renames that move records, that overwrite a record
    already stored under the new name on the same home, that go into
    their own subtree with victims on both sides, that invalidate live L1
    entries — and departures that re-home renamed records."""
    moved = overwrote = nested = l1_dropped = rehomed = 0
    for seed in SEEDS:
        twins = _Twins(seed)
        live, events = twins.live, twins.live_events
        for op, arg in _generate_ops(seed):
            renaming = op in ("rename", "rename_at")
            if renaming:
                old, new = arg[-2:]
                homes = (
                    live.server_ids() if op == "rename"
                    else [pick(live.server_ids(), arg[0])]
                )
                for server_id in homes:
                    store = live.servers[server_id].store
                    victims = store.paths_under(old)
                    targets = {new + path[len(old):] for path in victims}
                    overwrote += any(target in store for target in targets)
                    nested += bool(targets & set(victims))
            elif op == "remove" and live.num_servers > 2:
                rehomed += live.servers[pick(live.server_ids(), arg)].file_count
            emitted = len(events)
            cached = sum(len(server.lru) for server in live.servers.values())
            assert twins.apply(op, arg) is None and twins.check_state() is None
            if renaming:
                moved += len(events) > emitted
                l1_dropped += cached - sum(
                    len(server.lru) for server in live.servers.values()
                )
    assert min(moved, overwrote, nested, l1_dropped, rehomed) > 0, (
        moved, overwrote, nested, l1_dropped, rehomed
    )
