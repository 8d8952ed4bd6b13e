"""Unit tests for the cooperative L1 caching extension."""

import dataclasses

import pytest

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.query import QueryLevel


@pytest.fixture
def coop_config(small_config):
    return dataclasses.replace(small_config, cooperative_fanout=2)


class TestHintSharing:
    def test_peers_learn_from_origin_resolution(self, coop_config):
        cluster = GHBACluster(8, coop_config, seed=4)
        placement = cluster.populate(f"/coop/f{i}" for i in range(100))
        cluster.synchronize_replicas(force=True)
        path, home = next(iter(placement.items()))
        origin = cluster.server_ids()[0]
        cluster.query(path, origin_id=origin)
        group = cluster.group_of(origin)
        warmed = sum(
            1
            for member in group.members()
            if member.lru.peek(path) == home
        )
        # Origin plus cooperative_fanout peers.
        assert warmed == 1 + 2

    def test_hints_counted_as_messages(self, coop_config, small_config):
        plain = GHBACluster(8, small_config, seed=4)
        coop = GHBACluster(8, coop_config, seed=4)
        for cluster in (plain, coop):
            cluster.populate(f"/coop/f{i}" for i in range(50))
            cluster.synchronize_replicas(force=True)
        path = "/coop/f1"
        origin = 0
        plain_result = plain.query(path, origin_id=origin)
        coop_result = coop.query(path, origin_id=origin)
        assert coop_result.messages == plain_result.messages + 2

    def test_fanout_capped_by_group_size(self, small_config):
        config = dataclasses.replace(small_config, cooperative_fanout=50)
        cluster = GHBACluster(4, config, seed=1)
        cluster.populate(["/coop/only"])
        cluster.synchronize_replicas(force=True)
        result = cluster.query("/coop/only", origin_id=0)
        group_size = cluster.group_of(0).size
        assert result.found
        # Hints go to at most the other group members.
        for member in cluster.group_of(0).members():
            assert member.lru.peek("/coop/only") is not None or (
                member.server_id != 0 and group_size == 1
            )

    def test_peer_resolves_at_l1_after_hint(self, coop_config):
        cluster = GHBACluster(8, coop_config, seed=4)
        placement = cluster.populate(f"/coop/f{i}" for i in range(100))
        cluster.synchronize_replicas(force=True)
        path, home = next(iter(placement.items()))
        origin = cluster.server_ids()[0]
        cluster.query(path, origin_id=origin)
        group = cluster.group_of(origin)
        hinted_peer = next(
            (
                member.server_id
                for member in group.members()
                if member.server_id != origin and member.lru.peek(path) == home
            ),
            None,
        )
        if hinted_peer is None:
            pytest.skip("rng chose other peers")
        result = cluster.query(path, origin_id=hinted_peer)
        assert result.level is QueryLevel.L1

    def test_disabled_by_default(self, small_config):
        cluster = GHBACluster(8, small_config, seed=4)
        placement = cluster.populate(f"/coop/f{i}" for i in range(50))
        cluster.synchronize_replicas(force=True)
        path = next(iter(placement))
        origin = 0
        cluster.query(path, origin_id=origin)
        group = cluster.group_of(origin)
        for member in group.members():
            if member.server_id != origin:
                assert member.lru.peek(path) is None

    def test_negative_fanout_rejected(self):
        with pytest.raises(ValueError):
            GHBAConfig(cooperative_fanout=-1)
