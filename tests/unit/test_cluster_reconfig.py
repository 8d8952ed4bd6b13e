"""Unit tests for join / leave / split / merge / failure (Sections 3.1-3.2, 4.5)."""

import pytest

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.group import GroupError
from repro.metadata.attributes import FileMetadata


class TestJoin:
    def test_join_group_with_room(self, small_cluster):
        # 10 servers, M=4 -> one group of 2 has room.
        report = small_cluster.add_server()
        assert not report.split
        assert small_cluster.num_servers == 11
        small_cluster.check_invariants()

    def test_join_migrates_to_newcomer(self, small_cluster):
        report = small_cluster.add_server()
        newcomer = small_cluster.servers[report.server_id]
        assert newcomer.theta == report.migrated_replicas

    def test_join_replicates_newcomer_everywhere(self, small_cluster):
        report = small_cluster.add_server()
        own_group = small_cluster.group_of(report.server_id).group_id
        for group in small_cluster.groups.values():
            if group.group_id != own_group:
                assert report.server_id in group.hosted_replica_ids()

    def test_join_triggers_split_when_all_full(self, small_config):
        cluster = GHBACluster(8, small_config)  # two full groups of 4
        report = cluster.add_server()
        assert report.split
        assert cluster.num_groups == 3
        cluster.check_invariants()

    def test_split_sizes_match_paper(self, small_config):
        """Split of a full group (M=4) yields M - floor(M/2) = 2 and
        floor(M/2) + 1 = 3 members (Section 3.2)."""
        cluster = GHBACluster(4, small_config)  # one full group
        cluster.add_server()
        sizes = sorted(g.size for g in cluster.groups.values())
        assert sizes == [2, 3]

    def test_m_equals_one_degenerates_to_full_mirrors(self, small_config):
        """M=1: every group is a single MDS holding all N-1 replicas —
        G-HBA degenerates to HBA, and joins must still keep the mirror."""
        import dataclasses

        config = dataclasses.replace(small_config, max_group_size=1)
        cluster = GHBACluster(3, config, seed=1)
        cluster.check_invariants()
        report = cluster.add_server()
        cluster.check_invariants()
        newcomer = cluster.servers[report.server_id]
        assert newcomer.theta == cluster.num_servers - 1

    def test_many_joins_keep_invariants(self, small_cluster):
        for _ in range(10):
            small_cluster.add_server()
            small_cluster.check_invariants()
        assert small_cluster.num_servers == 20

    def test_queries_survive_joins(self, populated_cluster):
        cluster, placement = populated_cluster
        cluster.add_server()
        cluster.add_server()
        for path, home in list(placement.items())[:25]:
            result = cluster.query(path)
            assert result.home_id == home


class TestLeave:
    def test_remove_rehomes_metadata(self, populated_cluster):
        cluster, placement = populated_cluster
        victim = cluster.server_ids()[0]
        victim_files = [p for p, h in placement.items() if h == victim]
        cluster.remove_server(victim)
        cluster.check_invariants()
        cluster.synchronize_replicas(force=True)
        for path in victim_files[:10]:
            result = cluster.query(path)
            assert result.found
            assert result.home_id != victim

    def test_remove_drops_replicas_everywhere(self, small_cluster):
        victim = small_cluster.server_ids()[0]
        small_cluster.remove_server(victim)
        for group in small_cluster.groups.values():
            assert victim not in group.hosted_replica_ids()

    def test_remove_unknown_raises(self, small_cluster):
        with pytest.raises(KeyError):
            small_cluster.remove_server(999)

    def test_cannot_remove_last_server(self, small_config):
        cluster = GHBACluster(1, small_config)
        with pytest.raises(GroupError):
            cluster.remove_server(0)

    def test_merge_when_groups_shrink(self, small_config):
        # 6 servers, M=4: groups of 4 and 2.  Removing two members of the
        # 4-group leaves 2+2 <= 4 -> merge into one group.
        cluster = GHBACluster(6, small_config)
        big_group = max(cluster.groups.values(), key=lambda g: g.size)
        victims = big_group.member_ids()[:2]
        report = None
        for victim in victims:
            report = cluster.remove_server(victim)
        assert report is not None and report.merged
        assert cluster.num_groups == 1
        cluster.check_invariants()

    def test_merge_leaves_the_group_balanced(self, small_config):
        """Regression (ISSUE 17): a merge admitted each folded member with
        the ceil-based offload and never rebalanced, so this script ended
        with group 2 at per-member replica counts [0, 1, 1, 2]."""
        cluster = GHBACluster(10, small_config, seed=3)
        cluster.remove_server(6)
        cluster.add_server()
        cluster.remove_server(8)
        report = cluster.remove_server(4)
        assert report.merged
        for group in cluster.groups.values():
            assert group.load_imbalance() <= 1, group
        cluster.check_invariants()

    def test_many_leaves_keep_invariants(self, small_cluster):
        for _ in range(7):
            victim = small_cluster.server_ids()[-1]
            small_cluster.remove_server(victim)
            small_cluster.check_invariants()
        assert small_cluster.num_servers == 3


class TestJoinLeaveChurn:
    def test_alternating_churn(self, populated_cluster):
        cluster, placement = populated_cluster
        for round_index in range(4):
            cluster.add_server()
            cluster.check_invariants()
            victim = cluster.server_ids()[round_index]
            cluster.remove_server(victim)
            cluster.check_invariants()
        cluster.synchronize_replicas(force=True)
        found = sum(
            1 for path in list(placement)[:40] if cluster.query(path).found
        )
        assert found == 40


class TestFailure:
    def test_failed_server_files_become_negative(self, populated_cluster):
        """Fail-over must degrade, never misroute (Section 4.5)."""
        cluster, placement = populated_cluster
        path, home = next(iter(placement.items()))
        cluster.fail_server(home)
        cluster.check_invariants()
        result = cluster.query(path)
        assert not result.found

    def test_other_files_still_resolve_after_failure(self, populated_cluster):
        cluster, placement = populated_cluster
        victim = cluster.server_ids()[0]
        cluster.fail_server(victim)
        survivors = [
            (p, h) for p, h in placement.items() if h != victim
        ][:20]
        for path, home in survivors:
            result = cluster.query(path)
            assert result.home_id == home

    def test_failed_hosted_replicas_refetched(self, small_cluster):
        victim = small_cluster.server_ids()[0]
        small_cluster.fail_server(victim)
        small_cluster.check_invariants()

    def test_fail_unknown_raises(self, small_cluster):
        with pytest.raises(KeyError):
            small_cluster.fail_server(12345)


class TestRecovery:
    def test_recover_restores_failed_server_files(self, populated_cluster):
        """Table 1's recovery column: crash, then restore from disk."""
        cluster, placement = populated_cluster
        victim = cluster.server_ids()[0]
        victim_files = [p for p, h in placement.items() if h == victim]
        cluster.fail_server(victim)
        assert not cluster.query(victim_files[0]).found
        assert victim in cluster.crashed_server_ids()
        report = cluster.recover_server(victim)
        cluster.check_invariants()
        new_id = report.server_id
        for path in victim_files[:10]:
            result = cluster.query(path)
            assert result.found
            assert result.home_id == new_id

    def test_recover_without_crash_rejected(self, small_cluster):
        with pytest.raises(KeyError):
            small_cluster.recover_server(0)

    def test_recover_consumes_crashed_state(self, populated_cluster):
        cluster, _ = populated_cluster
        victim = cluster.server_ids()[0]
        cluster.fail_server(victim)
        cluster.recover_server(victim)
        assert victim not in cluster.crashed_server_ids()
        with pytest.raises(KeyError):
            cluster.recover_server(victim)

    def test_graceful_remove_leaves_no_crashed_state(self, small_cluster):
        victim = small_cluster.server_ids()[0]
        small_cluster.remove_server(victim)
        assert small_cluster.crashed_server_ids() == []


class TestReconfigReports:
    def test_ghba_join_cheaper_than_full_mirror(self, small_config):
        """The join must migrate far fewer than N replicas (Figure 11)."""
        cluster = GHBACluster(20, small_config)
        report = cluster.add_server()
        if not report.split:
            assert report.migrated_replicas < 20 / 2

    def test_messages_accounted(self, small_cluster):
        report = small_cluster.add_server()
        assert report.messages > 0
