"""Fault-path integration tests for write-back flushing (ISSUE 5).

At-most-once MUTATE_BATCH application under the prototype's lossy
transport (drops, duplicated retries, out-of-order first deliveries),
durable dedup across a node crash/restore, explicit loss at the barrier
on the GHBA simulation side, and bit-identical ``gateway_writeback_*``
counters for identical seed + fault plan (the determinism contract every
other layer of this repo honors).
"""

import pytest

from repro.core.config import GHBAConfig
from repro.core.cluster import GHBACluster
from repro.faults import FaultPlan, PlanFaultInjector
from repro.gateway import GatewayConfig, MetadataClient
from repro.gateway import client as gateway_client
from repro.metadata.attributes import FileMetadata
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


def _mutation(version, op, path, inode=0):
    entry = {"version": version, "op": op, "path": path}
    if op == "create":
        entry["record"] = FileMetadata(path=path, inode=inode)
    return entry


class TestPrototypeAtMostOnce:
    def test_duplicate_batch_dedups(self, config):
        with PrototypeCluster(4, config, scheme="ghba", seed=21) as proto:
            node_id = proto.node_ids()[0]
            server = proto.nodes[node_id].server
            batch = [_mutation(1, "create", "/wb/once", inode=1)]
            first = proto.apply_mutation_batch(node_id, batch, origin=7)
            assert not first["degraded"]
            assert [o["deduped"] for o in first["outcomes"]] == [False]
            applied_before = server.writeback_applied
            # The transport's retry policy re-sends the identical batch.
            again = proto.apply_mutation_batch(node_id, batch, origin=7)
            assert [o["deduped"] for o in again["outcomes"]] == [True]
            assert server.writeback_applied == applied_before
            assert server.store.get("/wb/once") is not None

    def test_out_of_order_first_delivery_applies(self, config):
        """Regression: gateway versions are global, so a home can see a
        *higher* version before a lower one it has never seen.  The lower
        version is a first delivery, not a retry — it must apply."""
        with PrototypeCluster(4, config, scheme="ghba", seed=21) as proto:
            node_id = proto.node_ids()[0]
            server = proto.nodes[node_id].server
            high = proto.apply_mutation_batch(
                node_id, [_mutation(15, "create", "/wb/high", inode=2)],
                origin=7,
            )
            assert [o["deduped"] for o in high["outcomes"]] == [False]
            low = proto.apply_mutation_batch(
                node_id, [_mutation(6, "create", "/wb/low", inode=3)],
                origin=7,
            )
            assert [o["deduped"] for o in low["outcomes"]] == [False]
            assert server.store.get("/wb/low") is not None
            assert server.writeback_applied == 2

    def test_cumulative_ack_floor_prunes_and_dedups(self, config):
        with PrototypeCluster(4, config, scheme="ghba", seed=21) as proto:
            node_id = proto.node_ids()[0]
            server = proto.nodes[node_id].server
            proto.apply_mutation_batch(
                node_id, [_mutation(2, "create", "/wb/a", inode=4)], origin=7
            )
            # The client's floor reached 2: the cache entry is pruned but
            # a stray re-delivery of v2 still dedups via the floor.
            late = proto.apply_mutation_batch(
                node_id,
                [_mutation(2, "create", "/wb/a", inode=4)],
                origin=7,
                acked_version=2,
            )
            assert [o["deduped"] for o in late["outcomes"]] == [True]
            assert server.writeback_applied == 1
            assert server.writeback_outcomes.get(7) == {}

    def test_dedup_survives_crash_restore(self, config):
        """The floor and outcome cache ride the checkpoint: a node
        restored from disk must refuse to re-apply a retried batch it
        absorbed before crashing."""
        with PrototypeCluster(4, config, scheme="ghba", seed=21) as proto:
            node_id = proto.node_ids()[0]
            batch = [
                _mutation(3, "create", "/wb/durable", inode=5),
                _mutation(4, "delete", "/wb/durable-gone"),
            ]
            proto.apply_mutation_batch(node_id, batch, origin=9)
            proto.crash_node(node_id)
            proto.restore_node(node_id)
            server = proto.nodes[node_id].server
            assert server.store.get("/wb/durable") is not None
            retry = proto.apply_mutation_batch(node_id, batch, origin=9)
            assert [o["deduped"] for o in retry["outcomes"]] == [True, True]
            assert server.writeback_applied == 0  # nothing re-applied

    def test_lossy_transport_applies_exactly_once(self, config):
        """Under a dropping/duplicating schedule, retrying the identical
        batch until it acks yields exactly one application."""
        with PrototypeCluster(4, config, scheme="ghba", seed=21) as proto:
            plan = FaultPlan(
                seed=33, drop_rate=0.3, duplicate_rate=0.2, partitions=()
            )
            proto.transport.injector = PlanFaultInjector(plan)
            node_id = proto.node_ids()[1]
            server = proto.nodes[node_id].server
            batch = [_mutation(1, "create", "/wb/lossy", inode=6)]
            acked = False
            for attempt in range(12):
                result = proto.apply_mutation_batch(node_id, batch, origin=3)
                if not result["degraded"]:
                    acked = True
                    break
            assert acked, "batch never acked within the retry budget"
            assert server.writeback_applied == 1
            assert server.store.get("/wb/lossy") is not None

    def test_crashed_node_answers_both_batch_calls_degraded(self, config):
        """A crashed home is a degraded answer, not a ``KeyError``, for
        ``verify_batch`` as for ``apply_mutation_batch``: the caller falls
        back to a walk instead of failing."""
        with PrototypeCluster(4, config, scheme="ghba", seed=21) as proto:
            node_id = proto.node_ids()[1]
            path = "/wb/before-crash"
            proto.apply_mutation_batch(
                node_id, [_mutation(1, "create", path, inode=7)], origin=3
            )
            assert proto.verify_batch(node_id, [path])["found"] == {path: True}
            proto.crash_node(node_id)
            verify = proto.verify_batch(node_id, [path])
            assert verify["degraded"] and verify["found"] == {}
            mutate = proto.apply_mutation_batch(
                node_id, [_mutation(2, "delete", path)], origin=3
            )
            assert mutate["degraded"] and mutate["outcomes"] == []
            assert verify["virtual_latency_ms"] == mutate["virtual_latency_ms"]
            with pytest.raises(KeyError):
                proto.verify_batch(99, [path])


def _run_ghba_fault_scenario(monkeypatch):
    """One deterministic write-back run under a silence window; returns
    the final ``gateway_writeback_*`` counter series."""
    monkeypatch.setattr(gateway_client, "FLUSH_RETRY_LIMIT", 2)
    monkeypatch.setattr(gateway_client, "FLUSH_RETRY_BACKOFF_S", 0.1)
    injector = PlanFaultInjector(FaultPlan(seed=11))
    config = GHBAConfig(
        max_group_size=4,
        expected_files_per_mds=200,
        lru_capacity=128,
        lru_filter_bits=1 << 10,
        seed=11,
    )
    cluster = GHBACluster(5, config, seed=11, faults=injector)
    cluster.populate([f"/g/f{i}" for i in range(50)])
    cluster.synchronize_replicas(force=True)
    client = MetadataClient(
        cluster,
        GatewayConfig(
            rate_per_s=1e6,
            burst=1e4,
            lease_ttl_s=30.0,
            writeback=True,
            flush_max_pending=3,
            flush_age_s=0.2,
            writeback_seed=11,
        ),
    )
    for i in range(6):
        client.create(f"/g/new{i}", now=0.05 * i, home_id=i % 5)
    injector.silence(2)
    for i in range(6, 12):
        client.create(f"/g/new{i}", now=0.05 * i, home_id=2)
    client.delete("/g/f0", now=0.7)
    injector.restore(2)
    client.flush_barrier(now=1.0)
    injector.silence(3)
    client.create("/g/doomed", now=1.1, home_id=3)
    client.flush_barrier(now=1.2)  # declares the loss explicitly
    snapshot = client.metrics.snapshot()
    counters = {
        name: family["series"]
        for name, family in snapshot.items()
        if name.startswith("gateway_writeback_")
    }
    fleet = {
        meta.path
        for server in cluster.servers.values()
        for meta in server.store.records()
    }
    return counters, fleet, [m.path for m in client.lost_mutations]


class TestGHBAFaultDeterminism:
    def test_losses_are_explicit_not_silent(self, monkeypatch):
        counters, fleet, lost = _run_ghba_fault_scenario(monkeypatch)
        assert lost == ["/g/doomed"]
        assert "/g/doomed" not in fleet
        assert counters["gateway_writeback_lost_total"][""] == 1.0
        # The silenced-window mutations retried to ack after recovery.
        for i in range(12):
            assert f"/g/new{i}" in fleet
        assert "/g/f0" not in fleet

    def test_counters_bit_identical_for_same_seed_and_plan(self, monkeypatch):
        first, fleet_a, lost_a = _run_ghba_fault_scenario(monkeypatch)
        second, fleet_b, lost_b = _run_ghba_fault_scenario(monkeypatch)
        assert first == second
        assert fleet_a == fleet_b
        assert lost_a == lost_b
