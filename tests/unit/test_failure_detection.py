"""Unit tests for heartbeat-based failure detection (Section 4.5)."""

import pytest

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.failure import HeartbeatMonitor


@pytest.fixture
def config():
    return GHBAConfig(
        max_group_size=3,
        expected_files_per_mds=128,
        lru_capacity=16,
        lru_filter_bits=128,
        heartbeat_interval_s=1.0,
        heartbeat_timeout_s=3.0,
        seed=2,
    )


@pytest.fixture
def setup(config):
    cluster = GHBACluster(6, config, seed=2)
    return cluster, HeartbeatMonitor(cluster)


class TestHealthyOperation:
    def test_no_false_detections(self, setup):
        cluster, monitor = setup
        monitor.advance(30.0)
        assert monitor.failures == []
        assert cluster.num_servers == 6

    def test_heartbeats_flow(self, setup):
        _, monitor = setup
        monitor.advance(5.0)
        assert monitor.heartbeats_sent > 0

    def test_rounds_fall_due_on_the_interval(self, setup):
        cluster, monitor = setup
        per_round = sum(cluster.group_of(s).size - 1 for s in cluster.server_ids())
        monitor.advance(0.99)
        assert monitor.heartbeats_sent == 0
        monitor.advance(3.0)
        assert monitor.heartbeats_sent == 3 * per_round

    def test_backward_clock_raises(self, setup):
        _, monitor = setup
        monitor.advance(2.0)
        with pytest.raises(ValueError, match="backward"):
            monitor.advance(1.5)
        monitor.advance(2.0)  # standing still is not going backward


class TestDetection:
    def test_crashed_server_detected_within_timeout(self, setup):
        cluster, monitor = setup
        monitor.advance(2.0)
        monitor.crash(0)
        monitor.advance(10.0)
        assert monitor.detected(0)
        event = monitor.failures[0]
        # Detection happens after the timeout but not much later.
        assert event.detected_at - event.last_heartbeat_at >= 3.0
        assert event.detected_at - event.last_heartbeat_at <= 3.0 + 2 * 1.0

    def test_detection_excises_server(self, setup):
        cluster, monitor = setup
        monitor.crash(0)
        monitor.advance(10.0)
        assert 0 not in cluster.servers
        cluster.check_invariants()

    def test_detector_is_group_peer(self, setup):
        cluster, monitor = setup
        victim = 1
        peers = cluster.group_of(victim).member_ids()
        monitor.crash(victim)
        monitor.advance(10.0)
        event = monitor.failures[0]
        assert event.detected_by in peers
        assert event.detected_by != victim

    def test_multiple_failures(self, setup):
        cluster, monitor = setup
        monitor.crash(0)
        monitor.crash(3)
        monitor.advance(15.0)
        assert {event.server_id for event in monitor.failures} == {0, 3}
        cluster.check_invariants()

    def test_crash_unknown_raises(self, setup):
        _, monitor = setup
        with pytest.raises(KeyError):
            monitor.crash(99)


class TestWitness:
    def test_a_crashed_peer_is_no_witness(self, setup):
        cluster, monitor = setup
        victim = 0
        first_peer = next(p for p in cluster.group_of(victim).member_ids() if p != victim)
        monitor.crash(victim)
        monitor.crash(first_peer)
        monitor.advance(10.0)
        assert {event.server_id for event in monitor.failures} == {victim, first_peer}
        for event in monitor.failures:
            assert event.detected_by not in (victim, first_peer)
            assert event.detected_by in cluster.servers

    def test_no_live_peer_records_nothing_and_keeps_watching(self, config):
        cluster = GHBACluster(2, config, seed=2)
        monitor = HeartbeatMonitor(cluster)
        monitor.crash(0)
        monitor.crash(1)
        monitor.advance(20.0)
        assert monitor.failures == []
        assert cluster.num_servers == 2
        assert repr(monitor) == "HeartbeatMonitor(tracked=2, failures=0)"


class TestDegradedService:
    def test_lost_files_negative_not_misrouted(self, config):
        cluster = GHBACluster(6, config, seed=2)
        placement = cluster.populate(f"/hb/f{i}" for i in range(60))
        cluster.synchronize_replicas(force=True)
        monitor = HeartbeatMonitor(cluster)
        victim = cluster.server_ids()[0]
        victim_files = [p for p, h in placement.items() if h == victim]
        monitor.crash(victim)
        monitor.advance(10.0)
        for path in victim_files[:5]:
            assert not cluster.query(path).found
        survivors = [(p, h) for p, h in placement.items() if h != victim][:10]
        for path, home in survivors:
            assert cluster.query(path).home_id == home

    def test_track_new_server(self, setup):
        """A server that joins later is watched without being registered."""
        cluster, monitor = setup
        monitor.advance(2.0)
        newcomer = cluster.add_server().server_id
        monitor.advance(20.0)
        assert not monitor.detected(newcomer)
        monitor.crash(newcomer)
        monitor.advance(30.0)
        assert monitor.detected(newcomer)
        assert newcomer not in cluster.servers
        event = monitor.failures[-1]
        assert event.last_heartbeat_at == 20.0
        assert event.detected_at == 24.0
        cluster.check_invariants()

    def test_departed_server_stops_being_watched(self, setup):
        cluster, monitor = setup
        monitor.advance(1.0)
        cluster.remove_server(5)
        monitor.advance(20.0)
        assert monitor.failures == []
        assert repr(monitor) == "HeartbeatMonitor(tracked=5, failures=0)"
