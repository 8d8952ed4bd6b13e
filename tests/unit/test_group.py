"""Unit tests for Group: replica hosting, IDBFA coordination, membership
(the membership *choices* are the plan's, tested here as a value)."""

import pytest

from repro.bloom.hashing import shared_family
from repro.core.cellindex import CellIndex
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.group import Group, GroupError
from repro.core.reconfiguration import DROP, MOVE, form, imbalance, join, leave
from repro.core.server import MetadataServer
from repro.metadata.attributes import FileMetadata


@pytest.fixture
def config():
    return GHBAConfig(
        max_group_size=4,
        expected_files_per_mds=128,
        lru_capacity=16,
        lru_filter_bits=128,
        seed=3,
    )


def make_server(server_id, config, files=()):
    server = MetadataServer(server_id, config)
    for index, path in enumerate(files):
        server.insert_metadata(FileMetadata(path=path, inode=index))
    return server


def make_group(config, member_ids=(0, 1, 2)):
    """A group of fresh members, in a cell index of their own; the outside
    servers whose replicas the tests install are in no index."""
    servers = {}
    index = CellIndex(
        shared_family(config.filter_num_hashes, config.filter_num_bits, config.seed),
        servers,
    )
    group = Group(0, index)
    for server_id in member_ids:
        server = servers[server_id] = make_server(server_id, config)
        index.join(server)
        group.idbfa.add_member(server_id)
        group.adopt_member(server)
    return group


def install(group, home_id, config, host=0):
    replica = make_server(home_id, config).publish_filter()
    group.install_replica(home_id, replica, group.get_member(host))


class TestReplicaHosting:
    def test_install_goes_to_lightest(self):
        """The plan sends an incoming replica to the lightest member."""
        plan = form(range(5), max_group_size=3)  # groups [0, 1, 2] and [3, 4]
        first, second = [s for s in plan.steps if s.group == 0]
        members = plan.directory.groups[0]
        assert first.dst in members
        assert plan.directory.placements[0][first.home] == first.dst
        # Second replica lands on a different (now lighter) member.
        assert second.dst in members and second.dst != first.dst

    def test_install_lands_on_the_named_host(self, config):
        group = make_group(config)
        outside = make_server(10, config, files=["/r10"])
        group.install_replica(10, outside.publish_filter(), group.get_member(2))
        assert group.idbfa.host_of(10) == 2
        assert group.get_member(2).hosted_replicas() == [10]

    def test_install_member_replica_rejected(self, config):
        group = make_group(config)
        with pytest.raises(GroupError):
            group.install_replica(
                1, make_server(1, config).publish_filter(), group.get_member(0)
            )
        # The plan's own check reports the same mistake in a directory.
        directory = form(range(5), max_group_size=3).directory
        directory.placements[0][1] = 0
        with pytest.raises(AssertionError, match="extra"):
            directory.check(3)

    def test_install_duplicate_rejected(self, config):
        group = make_group(config)
        install(group, 10, config)
        with pytest.raises(GroupError):
            install(group, 10, config, host=1)

    def test_remove_replica(self, config):
        group = make_group(config)
        install(group, 10, config, host=1)
        with pytest.raises(GroupError):
            group.remove_replica(10, group.get_member(0))
        group.remove_replica(10, group.get_member(1))
        assert group.idbfa.host_of(10) is None
        assert group.get_member(1).theta == 0
        with pytest.raises(GroupError):
            group.remove_replica(10, group.get_member(1))

    def test_move_replica(self, config):
        group = make_group(config)
        install(group, 10, config, host=1)
        group.move_replica(10, group.get_member(1), group.get_member(2))
        assert group.idbfa.host_of(10) == 2
        assert group.get_member(1).theta == 0
        assert group.get_member(2).hosted_replicas() == [10]

    def test_update_replica_reaches_true_host(self, config):
        group = make_group(config)
        outside = make_server(10, config)
        group.install_replica(10, outside.publish_filter(), group.get_member(1))
        outside.insert_metadata(FileMetadata(path="/fresh", inode=9))
        messages, false_candidates = group.update_replica(
            10, outside.publish_filter()
        )
        assert messages >= 1
        assert group.get_member(1).segment.get_replica(10).query("/fresh")

    def test_update_unknown_replica_rejected(self, config):
        group = make_group(config)
        with pytest.raises(GroupError):
            group.update_replica(99, make_server(99, config).publish_filter())


class TestGroupQuery:
    def test_multicast_finds_member_local_file(self, config):
        group = make_group(config)
        group.get_member(1).insert_metadata(FileMetadata(path="/on1", inode=1))
        lookup = group.multicast_query("/on1")
        assert lookup.unique_hit == 1

    def test_multicast_finds_hosted_replica(self, config):
        group = make_group(config)
        outside = make_server(10, config, files=["/outside-file"])
        group.install_replica(10, outside.publish_filter(), group.get_member(0))
        lookup = group.multicast_query("/outside-file")
        assert lookup.unique_hit == 10

    def test_multicast_zero_hits_for_unknown(self, config):
        group = make_group(config)
        assert group.multicast_query("/nowhere").hits == ()


class TestMembership:
    """Who offloads, inherits or drops what when membership changes is
    the plan's choice (``repro.core.reconfiguration``); no cluster needed."""

    def test_add_member_offloads_replicas(self):
        # Groups of 4/3/3 in a 10-server system; the newcomer joins group
        # 1, whose three members host the seven outside replicas.
        directory = form(range(10), max_group_size=4).directory
        plan = join(directory, 20, max_group_size=4)
        offloaded = [s for s in plan.steps if s.kind == MOVE]
        assert offloaded
        assert all(s.group == 1 and s.dst == 20 for s in offloaded)
        assert plan.cost().migrated == len(offloaded)
        loads = plan.directory.loads(1)
        assert loads[20] == len(offloaded)
        assert imbalance(loads.values()) <= 1

    def test_add_member_with_replicas_rejected(self):
        """A joiner must not host replicas yet: whoever is already in a
        group cannot join another."""
        directory = form(range(4), max_group_size=4).directory
        with pytest.raises(ValueError):
            join(directory, 2, max_group_size=4)

    def test_remove_member_migrates_hosted_replicas(self):
        directory = form(range(6), max_group_size=3).directory
        victim = directory.placements[0][3]
        plan = leave(directory, victim, max_group_size=3)
        inherited = [
            s for s in plan.steps if s.kind == MOVE and s.src == victim
        ]
        assert {s.home for s in inherited} == {
            home for home, host in directory.placements[0].items()
            if host == victim
        }
        assert plan.directory.placements[0][3] != victim
        assert victim not in plan.directory.groups[0]

    def test_remove_last_member_rejected(self):
        """A last member is never removed with migration — there is nobody
        to inherit; its group dissolves instead."""
        directory = form(range(3), max_group_size=1).directory
        plan = leave(directory, 0, max_group_size=1)
        assert not [s for s in plan.steps if s.kind == MOVE and s.src == 0]
        assert 0 not in plan.directory.groups

    def test_dissolve_returns_all_replicas(self):
        directory = form(range(3), max_group_size=1).directory
        plan = leave(directory, 0, max_group_size=1)
        dropped = [s.home for s in plan.steps if s.kind == DROP and s.src == 0]
        assert sorted(dropped) == [1, 2]
        assert all(0 not in members for members in plan.directory.groups.values())


class TestInvariant:
    """``GHBACluster.check_invariants`` holds the groups to the plan's
    directory: every member hosts exactly what it places there, and each
    group's IDBFA records the directory's placements."""

    @staticmethod
    def cluster_and_host(config):
        cluster = GHBACluster(6, config, seed=3)
        cluster.check_invariants()
        group = cluster.groups[0]
        host = next(m for m in group.members() if m.theta)
        return cluster, group, host, host.hosted_replicas()[0]

    def test_mirror_invariant_holds(self, config):
        cluster = GHBACluster(6, config, seed=3)
        cluster.add_server()
        cluster.remove_server(0)
        cluster.fail_server(4)
        cluster.check_invariants()

    def test_mirror_invariant_detects_missing(self, config):
        cluster, group, host, home = self.cluster_and_host(config)
        group.remove_replica(home, host)
        with pytest.raises(GroupError, match="places"):
            cluster.check_invariants()

    def test_mirror_invariant_detects_double_hosting(self, config):
        cluster, group, host, home = self.cluster_and_host(config)
        other = next(m for m in group.members() if m is not host)
        other.host_replica(home, cluster.servers[home].published_filter.copy())
        with pytest.raises(GroupError, match="places"):
            cluster.check_invariants()

    def test_mirror_invariant_detects_idbfa_drift(self, config):
        cluster, group, host, home = self.cluster_and_host(config)
        other = next(m for m in group.members() if m is not host)
        group.idbfa.move(home, other.server_id)
        with pytest.raises(GroupError, match="out of step"):
            cluster.check_invariants()
