"""Cross-implementation equivalence: simulator vs. prototype.

The trace-driven simulator (`repro.core`) and the message-passing prototype
(`repro.prototype`) implement the same scheme; given identical populated
state they must agree on every routing decision.  This pins down protocol
drift between the two implementations.
"""

import dataclasses
import random

import pytest

from repro.baselines.hba import HBACluster
from repro.core import reconfiguration
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.query import QueryLevel
from repro.metadata.attributes import FileMetadata
from repro.prototype.cluster import PrototypeCluster


@pytest.fixture
def config():
    return GHBAConfig(
        max_group_size=4,
        expected_files_per_mds=256,
        lru_capacity=64,
        lru_filter_bits=512,
        seed=33,
    )


class TestRoutingEquivalence:
    def test_same_homes_resolved(self, config):
        """Both implementations find the same (true) home for every path."""
        paths = [f"/eq/d{i % 5}/f{i}" for i in range(300)]
        sim = GHBACluster(10, config, seed=33)
        sim_placement = sim.populate(paths, policy="round_robin")
        sim.synchronize_replicas(force=True)
        with PrototypeCluster(10, config, scheme="ghba", seed=33) as proto:
            proto_placement = proto.populate(paths, policy="round_robin")
            # Round-robin placement from the same sorted server ids must
            # coincide exactly.
            assert proto_placement == sim_placement
            for path in paths[::13]:
                sim_result = sim.query(path, origin_id=0)
                proto_result = proto.lookup(path, origin_id=0)
                assert sim_result.home_id == proto_result.home_id

    def test_same_level_progression_for_cold_then_hot(self, config):
        """Both serve a repeat query from L1 after learning it."""
        paths = [f"/eq/f{i}" for i in range(100)]
        sim = GHBACluster(8, config, seed=7)
        sim.populate(paths, policy="round_robin")
        sim.synchronize_replicas(force=True)
        with PrototypeCluster(8, config, scheme="ghba", seed=7) as proto:
            proto.populate(paths, policy="round_robin")
            path = paths[0]
            sim.query(path, origin_id=1)
            proto.lookup(path, origin_id=1)
            proto.quiesce()
            assert sim.query(path, origin_id=1).level is QueryLevel.L1
            assert proto.lookup(path, origin_id=1).level is QueryLevel.L1

    def test_same_negative_verdicts(self, config):
        sim = GHBACluster(8, config, seed=7)
        sim.populate([f"/eq/f{i}" for i in range(50)], policy="round_robin")
        sim.synchronize_replicas(force=True)
        with PrototypeCluster(8, config, scheme="ghba", seed=7) as proto:
            proto.populate([f"/eq/f{i}" for i in range(50)], policy="round_robin")
            for ghost in ("/ghost/a", "/ghost/b"):
                assert not sim.query(ghost, origin_id=2).found
                assert not proto.lookup(ghost, origin_id=2).found

    def test_join_then_equivalent_routing(self, config):
        paths = [f"/eq/f{i}" for i in range(120)]
        sim = GHBACluster(9, config, seed=5)
        placement = sim.populate(paths, policy="round_robin")
        sim.synchronize_replicas(force=True)
        sim.add_server()
        with PrototypeCluster(9, config, scheme="ghba", seed=5) as proto:
            proto.populate(paths, policy="round_robin")
            proto.add_node()
            for path in paths[::17]:
                assert sim.query(path).home_id == placement[path]
                assert proto.lookup(path).home_id == placement[path]


def _same_directory(sim, proto):
    """Equal directories, dict order included (the repr keeps it)."""
    return repr(sim.directory) == repr(proto.directory)


def _tiny_config(max_group_size):
    return GHBAConfig(
        max_group_size=max_group_size,
        expected_files_per_mds=64,
        lru_capacity=16,
        lru_filter_bits=64,
        seed=3,
    )


def _script(num_servers, max_group_size):
    """A seeded join/leave script: ``("a", None)`` or ``("r", draw)``.
    M joins fill every group and split one; 2M departures of random
    victims drain the groups until two merge; then both again, shorter."""
    rng = random.Random(num_servers * 31 + max_group_size)
    ops = []
    for joining, count in (
        (True, max_group_size), (False, 2 * max_group_size), (True, 3), (False, 3)
    ):
        for _ in range(count):
            ops.append(("a", None) if joining else ("r", rng.random()))
    return ops


SHAPES = [(10, 4), (20, 7), (13, 6), (9, 2), (5, 1), (8, 8), (12, 4)]


class TestDirectoryEquivalence:
    """Formation, join, leave, split and merge are one plan
    (``repro.core.reconfiguration``) that both drivers carry out: they end
    every step with the same groups and the same ``{home: host}``
    placements, and what each reports is the plan's cost in its own
    column of the one charge table."""

    @pytest.mark.parametrize("num_servers, max_group_size", SHAPES[:5])
    def test_same_groups_and_placements_after_formation_and_join(
        self, num_servers, max_group_size
    ):
        config = _tiny_config(max_group_size)
        sim = GHBACluster(num_servers, config, seed=3)
        with PrototypeCluster(num_servers, config, scheme="ghba", seed=3) as proto:
            assert _same_directory(sim, proto)
            sim.add_server()
            proto.add_node()
            sim.check_invariants()
            proto.check_directory()
            assert _same_directory(sim, proto)

    @pytest.mark.parametrize("num_servers, max_group_size", SHAPES)
    def test_same_directory_and_the_plans_cost_after_every_step(
        self, num_servers, max_group_size
    ):
        config = _tiny_config(max_group_size)
        sim = GHBACluster(num_servers, config, seed=3)
        splits = merges = 0
        with PrototypeCluster(num_servers, config, scheme="ghba", seed=3) as proto:
            for op, draw in _script(num_servers, max_group_size):
                before = sim.directory
                if op == "a":
                    report = sim.add_server()
                    plan = reconfiguration.join(
                        before, report.server_id, max_group_size
                    )
                    sent = proto.add_node()
                elif sim.num_servers > 2:
                    ids = sim.server_ids()
                    victim = ids[int(draw * len(ids))]
                    plan = reconfiguration.leave(before, victim, max_group_size)
                    report = sim.remove_server(victim)
                    sent = proto.remove_node(victim)
                else:
                    continue
                cost = plan.cost()
                assert report.messages == cost.model
                assert report.migrated_replicas == cost.migrated
                assert sent == {"node_id": report.server_id, "messages": cost.wire}
                sim.check_invariants()
                proto.check_directory()
                assert _same_directory(sim, proto)
                splits += report.split
                merges += report.merged
        # Not vacuous: the script split a group and (M > 1) merged two.
        assert splits > 0 and (merges > 0 or max_group_size == 1)

    def test_join_at_group_size_one_founds_a_group_and_serves(self):
        """M = 1: the newcomer founds its own group and fetches the whole
        mirror (the repair in ``reconfiguration.join``); nothing raises
        and every file still resolves — also from the newcomer."""
        with PrototypeCluster(4, _tiny_config(1), scheme="ghba", seed=3) as proto:
            placement = proto.populate(f"/m1/f{i}" for i in range(60))
            newcomer = proto.add_node()["node_id"]
            proto.check_directory()
            assert proto.groups[proto.directory.group_of(newcomer)] == [newcomer]
            for path, home in list(placement.items())[::7]:
                assert proto.lookup(path, origin_id=newcomer).home_id == home


class TestHBAIsGroupSizeOne:
    def test_hba_fleet_keeps_the_plans_directory_with_its_own_cheaper_exchange(self):
        """``scheme="hba"`` is the directory at M = 1 — whatever the config's
        M says — reached by a piggy-backed exchange: a join costs 2N wire
        messages and a departure N - 1, not the plan's steps, and
        ``check_directory`` holds after each."""
        sim = HBACluster(5, _tiny_config(4), seed=3)
        with PrototypeCluster(5, _tiny_config(4), scheme="hba", seed=3) as proto:
            proto.check_directory()
            assert _same_directory(sim, proto)
            for op, draw in _script(5, 1):
                others = sim.num_servers
                if op == "a":
                    sim.add_server()
                    assert proto.add_node()["messages"] == 2 * others
                else:
                    ids = sim.server_ids()
                    victim = ids[int(draw * len(ids))]
                    sim.remove_server(victim)
                    assert proto.remove_node(victim)["messages"] == others - 1
                proto.check_directory()
                assert _same_directory(sim, proto)


WALK_SHAPES = [
    (10, 4, "ghba"), (12, 4, "ghba"), (7, 3, "ghba"), (6, 1, "ghba"), (6, 1, "hba"),
]
WALK_PATHS = [f"/eq/d{i % 5}/f{i}" for i in range(150)]


def _walk_script(num_servers, max_group_size):
    """Seeded lookups for both drivers: ``("q", path, origin draw)``, cold
    and repeated (hot) and for files that never existed; ``("stale", path,
    draw)`` learns a path at one origin, deletes it at its home out of band
    and asks three more times (stale L1 entry, stale replicas); ``("del",
    path)`` deletes at the home only (unsynced: L2 / L3 are refuted);
    ``("new", path, home draw)`` creates one there (unsynced: only L4 finds
    it); ``("sync",)`` republishes every filter; ``("a",)`` joins a node —
    M + 1 of them, so a group splits; ``("r", draw)`` removes one (fewer
    than join)."""
    rng = random.Random(num_servers * 37 + max_group_size)
    ops, joins, departures, created = [], 0, 0, []
    for _ in range(160):
        roll = rng.random()
        if roll < 0.55:
            kind = rng.random()
            if kind < 0.15:
                path = f"/ghost/f{rng.randrange(6)}"
            elif kind < 0.35 and created:
                path = rng.choice(created)
            else:
                path = rng.choice(WALK_PATHS)
            ops.append(("q", path, rng.random()))
            if rng.random() < 0.4:
                ops.append(ops[-1])
        elif roll < 0.62:
            created.append(f"/eq/new/f{len(created)}")
            ops.append(("new", created[-1], rng.random()))
            ops.append(("q", created[-1], rng.random()))
        elif roll < 0.75:
            ops.append(("stale", rng.choice(WALK_PATHS), rng.random()))
        elif roll < 0.87:
            ops.append(("del", rng.choice(WALK_PATHS)))
        elif roll < 0.93:
            ops.append(("sync",))
        elif roll < 0.97 and joins <= max_group_size:
            # The newcomer fetches filters that have not heard of a fresh
            # file yet, then asks for it.
            joins += 1
            created.append(f"/eq/new/f{len(created)}")
            ops.append(("new", created[-1], rng.random()))
            ops += [("a",), ("q", created[-1], 0.999)]
        elif departures < joins - 1:
            departures += 1
            ops.append(("r", rng.random()))
    return ops


def _homes(servers):
    return {r.path: sid for sid, s in servers.items() for r in s.store.records()}


class _BothDrivers:
    """The simulator and the prototype, populated alike.  Every lookup is
    asked of both; the simulator's answer is the prototype's oracle."""

    def __init__(self, num_servers, max_group_size, scheme, proto):
        self.proto = proto
        sim_cls = HBACluster if scheme == "hba" else GHBACluster
        self.sim = sim_cls(num_servers, _tiny_config(max_group_size), seed=3)
        self.placement = self.sim.populate(WALK_PATHS, policy="round_robin")
        assert proto.populate(WALK_PATHS, policy="round_robin") == self.placement
        self.sim.synchronize_replicas(force=True)
        self.answers = []

    def ask(self, path, draw):
        ids = self.sim.server_ids()
        origin = ids[int(draw * len(ids))]
        want = self.sim.query(path, origin_id=origin)
        sent_before = self.proto.transport.messages_sent
        got = self.proto.lookup(path, origin_id=origin)
        self.proto.quiesce()  # the closing RECORD_LRU is one-way
        assert (got.home_id, got.level, got.false_forwards) == (
            want.home_id, want.level, want.false_forwards
        ), (path, origin)
        assert got.home_id == self.placement.get(path)
        assert not got.degraded
        assert got.messages == self.proto.transport.messages_sent - sent_before
        self.answers.append(got)
        return got

    def delete_at_home(self, path):
        home = self.placement.pop(path, None)
        if home is not None:
            self.sim.servers[home].remove_metadata(path)
            self.proto.nodes[home].server.remove_metadata(path)

    def create_at_home(self, path, draw):
        ids = self.sim.server_ids()
        home = self.placement[path] = ids[int(draw * len(ids))]
        meta = FileMetadata(path=path, inode=10_000 + len(self.placement))
        self.sim.servers[home].insert_metadata(meta)
        self.proto.nodes[home].server.insert_metadata(dataclasses.replace(meta))

    def apply(self, op, *args):
        if op == "q":
            self.ask(*args)
        elif op == "new":
            self.create_at_home(*args)
        elif op == "stale":
            path, draw = args
            self.ask(path, draw)
            self.delete_at_home(path)
            for _ in range(3):
                self.ask(path, draw)
        elif op == "del":
            self.delete_at_home(*args)
        elif op == "sync":
            self.sim.synchronize_replicas(force=True)
            self.proto._refresh_replicas()
        elif op == "a":
            self.sim.add_server()
            self.proto.add_node()
            self.proto.check_directory()
        else:
            ids = self.sim.server_ids()
            victim = ids[int(args[0] * len(ids))]
            self.sim.remove_server(victim)
            self.proto.remove_node(victim)
            # The prototype republishes every filter after re-homing and
            # the simulator does not (DESIGN.md §2): sync both alike.
            self.apply("sync")
            self.placement = _homes(self.sim.servers)
            nodes = self.proto.nodes
            assert self.placement == _homes({n: nodes[n].server for n in nodes})


class TestWalkEquivalence:
    """Both drivers execute one walk (``repro.core.walk``), so the
    simulator — itself held to a frozen reference — is the prototype's
    oracle: same home, same level, same false forwards on every lookup,
    and what a prototype lookup reports as ``messages`` is what it put on
    the wire, through joins from unsynced filters and departures."""

    @pytest.mark.parametrize("num_servers, max_group_size, scheme", WALK_SHAPES)
    def test_same_home_level_and_false_forwards_on_every_lookup(
        self, num_servers, max_group_size, scheme
    ):
        config = _tiny_config(max_group_size)
        with PrototypeCluster(num_servers, config, scheme=scheme, seed=3) as proto:
            both = _BothDrivers(num_servers, max_group_size, scheme, proto)
            for op in _walk_script(num_servers, max_group_size):
                both.apply(*op)
            assert proto.num_nodes > num_servers
        # Not vacuous: every level answered, hits were refuted — at every
        # level of one walk, too — and negatives were certain.
        levels = {answer.level for answer in both.answers}
        grouped = {QueryLevel.L3} if max_group_size > 1 else set()
        assert levels == set(QueryLevel) - {QueryLevel.L3} | grouped
        assert sum(answer.false_forwards for answer in both.answers) > 20
        most = max(answer.false_forwards for answer in both.answers)
        assert most == (3 if max_group_size > 1 else 2)

    def test_refuted_l1_entry_is_forgotten_at_the_origin(self):
        """Warm a path at one origin, delete it at its home out of band,
        look it up three times: the first forwards on the stale L1 entry
        and forgets it (the flag rides on the PROBE_SEGMENT that follows),
        so the repeats save that round trip and the separate L2 probe —
        as the simulator's origin has always done."""
        path, origin = WALK_PATHS[5], 2
        with PrototypeCluster(8, _tiny_config(4), scheme="ghba", seed=3) as proto:
            both = _BothDrivers(8, 4, "ghba", proto)
            sim, wire = both.sim, proto.transport
            for _ in range(2):
                sim.query(path, origin_id=origin)
                proto.lookup(path, origin_id=origin)
                proto.quiesce()
            both.delete_at_home(path)
            sent, got, want = [], [], []
            for _ in range(3):
                want.append(sim.query(path, origin_id=origin).false_forwards)
                before = wire.messages_sent
                got.append(proto.lookup(path, origin_id=origin))
                proto.quiesce()
                sent.append(wire.messages_sent - before)
        assert sent[1] == sent[2] == sent[0] - 4
        assert [result.messages for result in got] == sent
        assert [result.false_forwards for result in got] == want
        assert want[0] == want[1] + 1 == want[2] + 1

class TestOnePopulateRule:
    @pytest.mark.parametrize("flavour", ["ghba", "hba", "prototype"])
    def test_two_populate_calls_never_reuse_an_inode(self, config, flavour):
        first = [f"/one/f{i}" for i in range(40)]
        second = [f"/two/f{i}" for i in range(40)]
        if flavour == "prototype":
            with PrototypeCluster(6, config, scheme="ghba", seed=9) as proto:
                proto.populate(first)
                proto.populate(second)
                servers = [node.server for node in proto.nodes.values()]
                inodes = [r.inode for s in servers for r in s.store.records()]
        else:
            cluster_cls = GHBACluster if flavour == "ghba" else HBACluster
            cluster = cluster_cls(6, config, seed=9)
            cluster.populate(first)
            cluster.populate(second)
            inodes = [
                record.inode
                for server in cluster.servers.values()
                for record in server.store.records()
            ]
        assert len(inodes) == 80
        assert len(set(inodes)) == 80

    def test_same_round_robin_homes_on_all_three(self, config):
        paths = [f"/rr/f{i}" for i in range(50)]
        expected = GHBACluster(6, config, seed=1).populate(paths, "round_robin")
        assert HBACluster(6, config, seed=2).populate(paths, "round_robin") == expected
        with PrototypeCluster(6, config, scheme="hba", seed=3) as proto:
            assert proto.populate(paths, "round_robin") == expected
