"""Integration tests for the threaded message-passing prototype."""

import threading

import pytest

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
        seed=21,
    )


@pytest.fixture
def ghba_proto(config):
    with PrototypeCluster(10, config, scheme="ghba", seed=21) as proto:
        yield proto


@pytest.fixture
def hba_proto(config):
    with PrototypeCluster(10, config, scheme="hba", seed=21) as proto:
        yield proto


class TestLookupProtocol:
    def test_lookups_resolve_correctly(self, ghba_proto):
        placement = ghba_proto.populate(f"/p/f{i}" for i in range(300))
        for path, home in list(placement.items())[::23]:
            outcome = ghba_proto.lookup(path)
            assert outcome.found
            assert outcome.home_id == home

    def test_negative_lookup(self, ghba_proto):
        ghba_proto.populate(f"/p/f{i}" for i in range(50))
        outcome = ghba_proto.lookup("/nope")
        assert not outcome.found
        assert outcome.level is QueryLevel.NEGATIVE

    def test_lru_learns_at_origin(self, ghba_proto):
        placement = ghba_proto.populate(f"/p/f{i}" for i in range(50))
        path = next(iter(placement))
        origin = ghba_proto.node_ids()[0]
        ghba_proto.lookup(path, origin_id=origin)
        ghba_proto.quiesce()  # let the RECORD_LRU one-way land
        repeat = ghba_proto.lookup(path, origin_id=origin)
        assert repeat.level is QueryLevel.L1

    def test_messages_counted_on_wire(self, ghba_proto):
        ghba_proto.populate(f"/p/f{i}" for i in range(50))
        before = ghba_proto.transport.messages_sent
        ghba_proto.lookup("/p/f1")
        assert ghba_proto.transport.messages_sent > before

    def test_virtual_latency_positive_and_ordered(self, ghba_proto):
        placement = ghba_proto.populate(f"/p/f{i}" for i in range(50))
        path = next(iter(placement))
        outcome = ghba_proto.lookup(path, vtime=5.0)
        assert outcome.latency_ms > 0

    def test_hba_resolves_locally(self, hba_proto):
        placement = hba_proto.populate(f"/p/f{i}" for i in range(200))
        for path, home in list(placement.items())[::29]:
            outcome = hba_proto.lookup(path)
            assert outcome.home_id == home
            assert outcome.level in (QueryLevel.L1, QueryLevel.L2)


class TestConcurrentClients:
    def test_parallel_lookups_all_correct(self, ghba_proto):
        placement = ghba_proto.populate(f"/c/f{i}" for i in range(400))
        errors = []

        def worker(offset):
            for i, (path, home) in enumerate(list(placement.items())[offset::8]):
                outcome = ghba_proto.lookup(path, vtime=i * 0.001)
                if outcome.home_id != home:
                    errors.append((path, outcome.home_id, home))

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors

    def test_queueing_under_concurrency(self, ghba_proto):
        """Simultaneous arrivals at one node must serialize on its clock."""
        placement = ghba_proto.populate(f"/q/f{i}" for i in range(50))
        path = next(iter(placement))
        origin = ghba_proto.node_ids()[0]
        first = ghba_proto.lookup(path, vtime=100.0, origin_id=origin)
        second = ghba_proto.lookup(path, vtime=100.0, origin_id=origin)
        assert second.latency_ms >= first.latency_ms * 0.5


class TestDynamicMembership:
    def test_ghba_adds_keep_directory_consistent(self, ghba_proto):
        ghba_proto.populate(f"/d/f{i}" for i in range(100))
        for _ in range(5):
            ghba_proto.add_node()
        ghba_proto.check_directory()

    def test_lookups_after_adds(self, ghba_proto):
        placement = ghba_proto.populate(f"/d/f{i}" for i in range(100))
        for _ in range(3):
            ghba_proto.add_node()
        for path, home in list(placement.items())[::11]:
            outcome = ghba_proto.lookup(path)
            assert outcome.home_id == home

    def test_hba_join_message_count_is_2n(self, hba_proto):
        report = hba_proto.add_node()
        assert report["messages"] == 2 * (hba_proto.num_nodes - 1)

    def test_ghba_join_cheaper_than_hba(self, config):
        with PrototypeCluster(10, config, scheme="ghba", seed=1) as g, \
                PrototypeCluster(10, config, scheme="hba", seed=1) as h:
            ghba_messages = g.add_node()["messages"]
            hba_messages = h.add_node()["messages"]
            assert ghba_messages < hba_messages

    def test_split_when_groups_full(self, config):
        with PrototypeCluster(8, config, scheme="ghba", seed=2) as proto:
            # 8 nodes, M=4: both groups full -> the add must split.
            groups_before = len(proto.groups)
            proto.add_node()
            assert len(proto.groups) == groups_before + 1
            proto.check_directory()

    def test_memory_budget_reaches_restored_and_new_nodes(self, ghba_proto):
        ghba_proto.populate(f"/d/f{i}" for i in range(50))
        ghba_proto.set_memory_budget(1000)
        ghba_proto.crash_node(3)
        restored = ghba_proto.restore_node(3).server
        newcomer = ghba_proto.nodes[ghba_proto.add_node()["node_id"]].server
        for server in (restored, newcomer, ghba_proto.nodes[0].server):
            assert server.memory_budget_bytes == 1000
            assert server.resident_fraction == 1000 / server.footprint_bytes


class TestNodeRemoval:
    def test_ghba_remove_keeps_directory_consistent(self, ghba_proto):
        ghba_proto.populate(f"/r/f{i}" for i in range(100))
        victim = ghba_proto.node_ids()[0]
        report = ghba_proto.remove_node(victim)
        assert report["messages"] > 0
        assert victim not in ghba_proto.nodes
        ghba_proto.check_directory()

    def test_ghba_remove_rehomes_files(self, ghba_proto):
        placement = ghba_proto.populate(f"/r/f{i}" for i in range(100))
        victim = ghba_proto.node_ids()[0]
        victim_files = [p for p, h in placement.items() if h == victim]
        ghba_proto.remove_node(victim)
        for path in victim_files[:5]:
            outcome = ghba_proto.lookup(path)
            assert outcome.found
            assert outcome.home_id != victim

    def test_ghba_other_files_unaffected(self, ghba_proto):
        placement = ghba_proto.populate(f"/r/f{i}" for i in range(100))
        victim = ghba_proto.node_ids()[-1]
        survivors = [(p, h) for p, h in placement.items() if h != victim][:10]
        ghba_proto.remove_node(victim)
        for path, home in survivors:
            assert ghba_proto.lookup(path).home_id == home

    def test_groups_merge_when_small(self, config):
        with PrototypeCluster(10, config, scheme="ghba", seed=5) as proto:
            # Balanced: groups of 4/3/3.  Removing enough members forces
            # the small groups to merge within M=4.
            groups_before = len(proto.groups)
            removed = 0
            while len(proto.groups) >= groups_before and removed < 5:
                proto.remove_node(proto.node_ids()[-1])
                removed += 1
            proto.check_directory()
            assert len(proto.groups) < groups_before

    def test_hba_remove_drops_replicas_everywhere(self, hba_proto):
        hba_proto.populate(f"/r/f{i}" for i in range(50))
        victim = hba_proto.node_ids()[0]
        hba_proto.remove_node(victim)
        for node in hba_proto.nodes.values():
            assert victim not in node.server.segment

    def test_remove_last_node_rejected(self, config):
        with PrototypeCluster(1, config, scheme="ghba") as proto:
            import pytest as _pytest

            with _pytest.raises(ValueError):
                proto.remove_node(proto.node_ids()[0])

    def test_remove_unknown_rejected(self, ghba_proto):
        with pytest.raises(KeyError):
            ghba_proto.remove_node(999)


class TestWireCounts:
    """``messages`` is the whole operation, read once the wire is quiet:
    transfers that nodes relay (HOST_REPLICA for COPY_REPLICA_TO /
    SEND_LOCAL_TO) are sent from node threads and must not depend on who
    won the race to the counter — Figure 15 is built from these numbers."""

    @pytest.mark.parametrize("scheme", ["ghba", "hba"])
    def test_reported_messages_equal_the_transport_delta(self, config, scheme):
        # 8 nodes, M=4: both groups are full, so the G-HBA add splits
        # (dozens of relayed transfers); the removal then migrates.
        with PrototypeCluster(8, config, scheme=scheme, seed=2) as proto:
            proto.populate(f"/w/f{i}" for i in range(40))
            before = proto.transport.messages_sent
            report = proto.add_node()
            after_add = proto.transport.messages_sent
            assert report["messages"] == after_add - before
            report = proto.remove_node(proto.node_ids()[0])
            assert report["messages"] == proto.transport.messages_sent - after_add


class TestShutdown:
    def test_context_manager_stops_threads(self, config):
        with PrototypeCluster(4, config, scheme="ghba") as proto:
            nodes = list(proto.nodes.values())
        for node in nodes:
            assert not node.is_alive()
