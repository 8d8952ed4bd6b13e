"""Unit tests for the network latency model and an MDS's resident fraction."""

import pytest

from repro.core.config import GHBAConfig
from repro.core.server import MetadataServer
from repro.metadata.attributes import FileMetadata
from repro.sim.network import NetworkModel


class TestNetworkModel:
    def test_ordering_memory_lan_disk(self):
        net = NetworkModel()
        assert net.memory_probe_ms < net.unicast_ms < net.disk_access_ms

    def test_probe_cost_all_in_memory(self):
        net = NetworkModel()
        assert net.probe_cost_ms(10, 1.0) == pytest.approx(
            10 * net.memory_probe_ms
        )

    def test_probe_cost_all_spilled(self):
        net = NetworkModel()
        assert net.probe_cost_ms(10, 0.0) == pytest.approx(
            10 * net.disk_access_ms
        )

    def test_probe_cost_mixed(self):
        net = NetworkModel()
        cost = net.probe_cost_ms(10, 0.5)
        assert cost == pytest.approx(
            5 * net.memory_probe_ms + 5 * net.disk_access_ms
        )

    def test_probe_cost_validation(self):
        net = NetworkModel()
        with pytest.raises(ValueError):
            net.probe_cost_ms(-1)
        with pytest.raises(ValueError):
            net.probe_cost_ms(1, 1.5)

    def test_multicast_grows_with_fanout(self):
        net = NetworkModel()
        assert net.multicast_ms(10) > net.multicast_ms(2)
        assert net.multicast_ms(0) == 0.0

    def test_group_and_global_multicast(self):
        net = NetworkModel()
        assert net.group_multicast_ms(6) == net.multicast_ms(5)
        assert net.global_multicast_ms(100) == net.multicast_ms(99)
        assert net.group_multicast_ms(1) == 0.0

    def test_round_trip_is_two_unicasts(self):
        net = NetworkModel()
        assert net.round_trip_ms() == pytest.approx(2 * net.unicast_ms)

    def test_every_config_shares_the_one_model(self):
        assert GHBAConfig().network is GHBAConfig(seed=3).network




def mds(budget=None):
    """An MDS with records and two hosted replicas."""
    config = GHBAConfig(expected_files_per_mds=64, memory_budget_bytes=budget)
    server = MetadataServer(0, config)
    server.insert_many([FileMetadata(path=f"/m{i}", inode=i) for i in range(8)])
    for home_id in (1, 2):
        server.host_replica(home_id, MetadataServer(home_id, config).publish_filter())
    return server


class TestMemoryModelPriority:
    """What the removed priority mode shared with the proportional rule,
    now held by ``MetadataServer.resident_fraction``."""

    def test_unbounded_everything_resident(self):
        server = mds()
        net = server.config.network
        assert server.resident_fraction == 1.0
        assert server.probe_cost_cached(net) == net.probe_cost_ms(2, 1.0)

    def test_fully_spilled_tail(self):
        server = mds(budget=0)
        net = server.config.network
        assert server.resident_fraction == 0.0
        assert server.probe_cost_cached(net) == 2 * net.disk_access_ms

    def test_overcommitted_flag(self):
        server = mds()
        server.memory_budget_bytes = server.footprint_bytes
        assert server.resident_fraction == 1.0
        server.memory_budget_bytes = server.footprint_bytes - 1
        assert server.resident_fraction < 1.0


class TestMemoryModelProportional:
    def test_fits_budget_fully_resident(self):
        server = mds()
        server.memory_budget_bytes = 2 * server.footprint_bytes
        assert server.resident_fraction == 1.0

    def test_overcommit_shares_fraction(self):
        server = mds()
        budget = server.footprint_bytes // 2
        server.memory_budget_bytes = budget
        fraction = budget / server.footprint_bytes
        assert server.resident_fraction == fraction
        net = server.config.network
        assert server.probe_cost_cached(net) == net.probe_cost_ms(2, fraction)
        assert server.fetch_penalty_cached(net) == (
            fraction * net.memory_record_ms + (1.0 - fraction) * net.disk_access_ms
        )

    def test_budget_update_changes_fractions(self):
        server = mds()
        net = server.config.network
        server.memory_budget_bytes = server.footprint_bytes // 2
        half = server.probe_cost_cached(net)
        server.memory_budget_bytes = server.footprint_bytes // 4
        assert server.resident_fraction == pytest.approx(0.25, abs=1e-3)
        assert server.probe_cost_cached(net) > half
