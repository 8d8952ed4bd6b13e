"""Cross-implementation equivalence: simulator vs. prototype.

The trace-driven simulator (`repro.core`) and the message-passing prototype
(`repro.prototype`) implement the same scheme; given identical populated
state they must agree on every routing decision.  This pins down protocol
drift between the two implementations.
"""

import random

import pytest

from repro.baselines.hba import HBACluster
from repro.core import reconfiguration
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.query import QueryLevel
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


def _sim_directory(sim):
    return (
        {gid: group.member_ids() for gid, group in sim.groups.items()},
        {gid: group.idbfa.placements() for gid, group in sim.groups.items()},
    )


def _proto_directory(proto):
    return (proto.directory.groups, proto.directory.placements)


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
            assert _proto_directory(proto) == _sim_directory(sim)
            sim.add_server()
            proto.add_node()
            sim.check_invariants()
            proto.check_directory()
            assert _proto_directory(proto) == _sim_directory(sim)

    @pytest.mark.parametrize("num_servers, max_group_size", SHAPES)
    def test_same_directory_and_the_plans_cost_after_every_step(
        self, num_servers, max_group_size
    ):
        config = _tiny_config(max_group_size)
        sim = GHBACluster(num_servers, config, seed=3)
        splits = merges = 0
        with PrototypeCluster(num_servers, config, scheme="ghba", seed=3) as proto:
            for op, draw in _script(num_servers, max_group_size):
                before = sim._directory()
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
                assert _proto_directory(proto) == _sim_directory(sim)
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
