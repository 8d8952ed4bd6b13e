"""Unit tests for the write-back mutation buffer (ISSUE 5 tentpole).

Covers the buffer data structure in isolation (versioning, same-path
absorption, the cumulative-ack floor, boundary-aware prefix probes,
drain/requeue ordering) and the client's write-back semantics over a real
:class:`GHBACluster`: read-your-writes overlays, flush triggers, lease
version arbitration (conflicts never clobber), rename partial barriers
(including the ``/a/b`` vs ``/a/bc`` prefix trap), and explicit loss.
"""

import pytest

from repro.core.cluster import GHBACluster, PathMutation
from repro.core.config import GHBAConfig
from repro.faults import FaultPlan, PlanFaultInjector
from repro.gateway import (
    GatewayConfig,
    MetadataClient,
    MutationBuffer,
    Outcome,
)
from repro.gateway import client as gateway_client
from repro.metadata.attributes import FileMetadata
from repro.obs.trace import CollectingTracer
from repro.prototype.cluster import PrototypeCluster


def _config(seed=17):
    return GHBAConfig(
        max_group_size=4,
        expected_files_per_mds=200,
        lru_capacity=128,
        lru_filter_bits=1 << 10,
        seed=seed,
    )


def _cluster(num=6, seed=17, paths=(), faults=None):
    cluster = GHBACluster(num, _config(seed), seed=seed, faults=faults)
    if paths:
        cluster.populate(paths)
        cluster.synchronize_replicas(force=True)
    return cluster


def _client(cluster, **overrides):
    overrides.setdefault("rate_per_s", 1e6)
    overrides.setdefault("burst", 1e4)
    overrides.setdefault("lease_ttl_s", 30.0)
    overrides.setdefault("writeback", True)
    return MetadataClient(cluster, GatewayConfig(**overrides))


def _fleet_paths(cluster):
    return {
        meta.path
        for server in cluster.servers.values()
        for meta in server.store.records()
    }


class TestMutationBuffer:
    def test_versions_are_monotone_and_global(self):
        buffer = MutationBuffer()
        a = buffer.enqueue("create", "/a", 0, 0.0, record=None)
        b = buffer.enqueue("create", "/b", 1, 0.0, record=None)
        c = buffer.enqueue("delete", "/c", 0, 0.0)
        assert [a.version, b.version, c.version] == [1, 2, 3]

    def test_same_path_absorbs_keeping_earliest_base(self):
        buffer = MutationBuffer()
        first = buffer.enqueue(
            "create", "/a", 2, 1.0, record=None, base_version=7
        )
        second = buffer.enqueue("delete", "/a", 4, 9.0)
        assert len(buffer) == 1
        assert buffer.absorbed == 1
        # The replacement takes a fresh version but inherits the original
        # base, enqueue time and home (the backend never saw the
        # intermediate intent).
        assert second.version > first.version
        assert second.base_version == 7
        assert second.enqueued_at == 1.0
        assert second.home_id == 2
        # The absorbed version is settled: it will never be flushed.
        assert buffer.acks.floor == first.version

    def test_ack_floor_advances_through_dense_prefix_only(self):
        buffer = MutationBuffer()
        for path in ("/a", "/b", "/c"):
            buffer.enqueue("create", path, 0, 0.0, record=None)
        buffer.settle(3)
        assert buffer.acks.floor == 0  # hole at 1
        buffer.settle(1)
        assert buffer.acks.floor == 1  # hole at 2
        buffer.settle(2)
        assert buffer.acks.floor == 3

    def test_paths_under_is_boundary_aware(self):
        buffer = MutationBuffer()
        for path in ("/a/b", "/a/b/c", "/a/bc"):
            buffer.enqueue("create", path, 0, 0.0, record=None)
        assert sorted(buffer.paths_under("/a/b")) == ["/a/b", "/a/b/c"]

    def test_drain_home_returns_version_order(self):
        buffer = MutationBuffer()
        buffer.enqueue("create", "/x", 3, 0.0, record=None)
        buffer.enqueue("create", "/y", 3, 0.0, record=None)
        buffer.enqueue("create", "/x", 3, 0.0, record=None)  # absorbs v1
        drained = buffer.drain_home(3)
        assert [m.version for m in drained] == sorted(
            m.version for m in drained
        )
        assert not buffer
        assert buffer.homes() == []

    def test_requeue_skips_superseded_paths(self):
        buffer = MutationBuffer()
        buffer.enqueue("create", "/x", 1, 0.0, record=None)
        drained = buffer.drain_home(1)
        # While the flush was in flight a newer intent arrived.
        newer = buffer.enqueue("delete", "/x", 1, 1.0)
        buffer.requeue(drained)
        assert buffer.get("/x") is newer

    def test_delete_of_pending_create_stays_at_create_home(self):
        buffer = MutationBuffer()
        buffer.enqueue("create", "/x", 5, 0.0, record=None)
        merged = buffer.enqueue("delete", "/x", 2, 1.0)
        assert merged.home_id == 5


class TestReadYourWrites:
    def test_buffered_create_answers_from_overlay(self):
        cluster = _cluster()
        client = _client(cluster)
        created = client.create("/wb/new", now=0.0)
        assert created.outcome is Outcome.BUFFERED
        assert created.from_overlay
        read = client.lookup("/wb/new", now=0.0)
        assert read.outcome is Outcome.OVERLAY
        assert read.from_overlay
        assert read.record is not None and read.record.path == "/wb/new"
        # Nothing reached the fleet yet.
        assert "/wb/new" not in _fleet_paths(cluster)

    def test_buffered_delete_answers_negative_from_overlay(self):
        paths = [f"/wb/f{i}" for i in range(40)]
        cluster = _cluster(paths=paths)
        client = _client(cluster)
        client.lookup(paths[0], now=0.0)  # lease carries home + version
        gone = client.delete(paths[0], now=0.0)
        assert gone.outcome is Outcome.BUFFERED
        read = client.lookup(paths[0], now=0.0)
        assert read.outcome is Outcome.OVERLAY
        assert read.record is None
        # The backend still has it until the flush.
        assert paths[0] in _fleet_paths(cluster)

    def test_rename_boundary_does_not_flush_sibling(self):
        """A pending ``/a/bc`` must survive a rename of ``/a/b``."""
        cluster = _cluster()
        client = _client(cluster)
        client.create("/a/b/child", now=0.0, home_id=0)
        client.create("/a/bc", now=0.0, home_id=1)
        client.rename("/a/b", "/a/moved", now=0.0)
        buffer = client.writeback
        # The subtree mutation flushed; the sibling is still pending.
        assert buffer.get("/a/b/child") is None
        assert buffer.get("/a/bc") is not None
        fleet = _fleet_paths(cluster)
        assert "/a/moved/child" in fleet
        assert "/a/bc" not in fleet  # still buffered
        client.flush_barrier(now=1.0)
        assert "/a/bc" in _fleet_paths(cluster)

    def test_rename_boundary_lookup_after_barrier(self):
        paths = ["/a/b", "/a/bc"]
        cluster = _cluster(paths=paths)
        client = _client(cluster)
        client.rename("/a/b", "/a/z", now=0.0)
        hit = client.lookup("/a/bc", now=0.0)
        assert hit.home_id == cluster.home_of("/a/bc")
        miss = client.lookup("/a/b", now=0.0)
        assert miss.home_id is None


class TestFlushEngine:
    def test_size_trigger_flushes_bucket(self):
        cluster = _cluster()
        client = _client(cluster, flush_max_pending=2, flush_age_s=1e9)
        client.create("/wb/a", now=0.0, home_id=0)
        assert "/wb/a" not in _fleet_paths(cluster)
        client.create("/wb/b", now=0.0, home_id=0)
        # Second enqueue tripped the size trigger: both applied in one
        # MUTATE_BATCH round trip.
        fleet = _fleet_paths(cluster)
        assert {"/wb/a", "/wb/b"} <= fleet
        assert client.backend_mutations == 1

    def test_age_trigger_flushes_on_later_traffic(self):
        cluster = _cluster()
        client = _client(cluster, flush_max_pending=100, flush_age_s=0.5)
        client.create("/wb/a", now=0.0, home_id=0)
        client.lookup("/elsewhere", now=0.1)
        assert "/wb/a" not in _fleet_paths(cluster)
        client.lookup("/elsewhere", now=0.9)  # pump past the age
        assert "/wb/a" in _fleet_paths(cluster)

    def test_barrier_flushes_everything_and_advances_floor(self):
        cluster = _cluster()
        client = _client(cluster, flush_max_pending=100, flush_age_s=1e9)
        for i in range(5):
            client.create(f"/wb/f{i}", now=0.0, home_id=i % 3)
        report = client.flush_barrier(now=0.0)
        assert len(report.acked) == 5
        assert not report.lost and not report.deferred
        assert client.writeback.acks.floor == 5
        assert {f"/wb/f{i}" for i in range(5)} <= _fleet_paths(cluster)

    def test_flush_installs_leases(self):
        cluster = _cluster()
        client = _client(cluster, flush_max_pending=100, flush_age_s=1e9)
        client.create("/wb/leased", now=0.0, home_id=2)
        client.flush_barrier(now=0.0)
        backend_before = client.backend_queries
        read = client.lookup("/wb/leased", now=0.1)
        assert read.from_cache
        assert client.backend_queries == backend_before


class TestVersionArbitration:
    def test_conflicting_flush_never_clobbers(self):
        """A buffered delete whose base version went stale loses the race
        and must leave the winner's state untouched."""
        paths = [f"/wb/f{i}" for i in range(40)]
        cluster = _cluster(paths=paths)
        client = _client(cluster, flush_max_pending=100, flush_age_s=1e9)
        victim = paths[0]
        client.lookup(victim, now=0.0)  # lease pins the base version
        client.delete(victim, now=0.0)  # parks with that base
        # A direct mutation wins the race while the delete is parked:
        # delete + recreate bumps the backend path version.
        home = cluster.delete_file(victim)
        cluster.insert_file(
            FileMetadata(path=victim, inode=999_999), home_id=home
        )
        winner_version = cluster.path_version(victim)
        report = client.flush_barrier(now=0.5)
        assert len(report.conflicts) == 1
        assert not report.acked
        # No clobber: the winner's record and version survived.
        assert victim in _fleet_paths(cluster)
        assert cluster.path_version(victim) == winner_version
        assert client._wb["conflicts"].value == 1.0

    def test_conflict_triggers_reread(self):
        paths = [f"/wb/f{i}" for i in range(40)]
        cluster = _cluster(paths=paths)
        client = _client(cluster, flush_max_pending=100, flush_age_s=1e9)
        victim = paths[3]
        client.lookup(victim, now=0.0)
        client.delete(victim, now=0.0)
        home = cluster.delete_file(victim)
        cluster.insert_file(
            FileMetadata(path=victim, inode=123_456), home_id=home
        )
        client.flush_barrier(now=0.5)
        # The losing gateway re-read and re-leased the winner's state.
        read = client.lookup(victim, now=0.6)
        assert read.from_cache
        assert read.record is not None and read.record.inode == 123_456


    def test_create_whose_record_names_another_path_is_refused(self):
        """Regression: such a create was acked as applied for its path
        but stored the record under the record's own name."""
        cluster = _cluster()
        create = PathMutation(
            version=1,
            op="create",
            path="/a",
            record=FileMetadata(path="/b", inode=1),
        )
        with pytest.raises(ValueError, match="'/a'.*'/b'"):
            cluster.apply_mutation_batch(0, [create], origin=1)
        assert cluster.home_of("/a") is None
        assert cluster.home_of("/b") is None
        assert cluster.path_version("/b") == 0


class TestMalformedBatch:
    """A batch with one malformed mutation is refused whole by both home
    MDSs: nothing applies and nothing is remembered for dedup.
    Regression: both applied the valid create ahead of the bad one."""

    VALID = dict(
        version=1, op="create", path="/a", record=FileMetadata(path="/a", inode=1)
    )
    BAD = {
        "unknown op": dict(version=2, op="rename", path="/b"),
        "create without a record": dict(version=2, op="create", path="/b"),
        "record of another path": dict(
            version=2, op="create", path="/b", record=FileMetadata(path="/c", inode=2)
        ),
    }

    @pytest.fixture(params=["core", "prototype"])
    def stack(self, request):
        """``(apply(batch) -> outcome dicts, home server, path_version)``;
        the prototype node keeps no path versions (None)."""
        if request.param == "core":
            cluster = _cluster()

            def apply(batch):
                mutations = [PathMutation(**m) for m in batch]
                result = cluster.apply_mutation_batch(0, mutations, origin=1)
                return [vars(outcome) for outcome in result.outcomes]

            yield apply, cluster.servers[0], cluster.path_version
            return
        with PrototypeCluster(3, _config(), seed=17) as proto:

            def apply(batch):
                return proto.apply_mutation_batch(0, batch, origin=1)["outcomes"]

            yield apply, proto.nodes[0].server, None

    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_batch_is_refused_whole(self, stack, bad):
        apply, server, path_version = stack
        with pytest.raises(ValueError):
            apply([self.VALID, self.BAD[bad]])
        assert "/a" not in server.store
        assert path_version is None or path_version("/a") == 0
        assert server.writeback_applied == 0
        assert server.writeback_outcomes == server.writeback_floor == {}
        # Nothing was remembered: the valid half alone is a first delivery.
        (outcome,) = apply([self.VALID])
        assert outcome["changed"] and not outcome["deduped"]
        assert "/a" in server.store


class TestExplicitLoss:
    def test_barrier_reports_unreachable_mutations_as_lost(self, monkeypatch):
        monkeypatch.setattr(gateway_client, "FLUSH_RETRY_LIMIT", 2)
        injector = PlanFaultInjector(FaultPlan(seed=5))
        cluster = _cluster(faults=injector)
        client = _client(cluster, flush_max_pending=100, flush_age_s=1e9)
        client.create("/wb/doomed", now=0.0, home_id=1)
        injector.silence(1)
        report = client.flush_barrier(now=0.0)
        assert len(report.lost) == 1
        assert report.lost[0].path == "/wb/doomed"
        assert [m.path for m in client.lost_mutations] == ["/wb/doomed"]
        assert "/wb/doomed" not in _fleet_paths(cluster)

    def test_each_lost_mutation_is_settled_and_dropped_before_its_ack(
        self, monkeypatch
    ):
        """Per mutation: settle -> drop the lease -> seal its flush span
        -> ack; an ack listener never sees a lost mutation still pending
        or leased, nor a later mutation's flush span already sealed."""
        monkeypatch.setattr(gateway_client, "FLUSH_RETRY_LIMIT", 1)
        injector = PlanFaultInjector(FaultPlan(seed=5))
        cluster = _cluster(faults=injector)
        tracer = CollectingTracer()
        client = MetadataClient(
            cluster,
            GatewayConfig(writeback=True, flush_max_pending=100, flush_age_s=1e9),
            tracer=tracer,
        )
        paths = ["/wb/doomed-a", "/wb/doomed-b"]
        for path in paths:
            client.create(path, now=0.0, home_id=1)
        seen = []

        def on_ack(mutation, outcome):
            assert outcome is None
            seen.append(
                (
                    mutation.path,
                    client.writeback.get(mutation.path) is None,
                    client.cache.peek(mutation.path) is None,
                    [m.path for m in client.lost_mutations],
                    [
                        span.path
                        for span in tracer.finished_spans()
                        if span.kind == "wb_flush"
                    ],
                )
            )

        client.add_ack_listener(on_ack)
        injector.silence(1)
        client.flush_barrier(now=0.0)
        assert seen == [
            (paths[0], True, True, paths[:1], paths[:1]),
            (paths[1], True, True, paths, paths),
        ]

    def test_mutation_listener_sees_the_applied_counter_include_it(self):
        cluster = _cluster()
        client = _client(cluster, flush_max_pending=100, flush_age_s=1e9)
        counted = []
        cluster.add_mutation_listener(
            lambda event: counted.append(
                (event.op, cluster.servers[event.home_id].writeback_applied)
            )
        )
        client.create("/wb/counted", now=0.0, home_id=2)
        client.flush_barrier(now=0.0)
        client.delete("/wb/counted", now=0.1)
        client.flush_barrier(now=0.1)
        assert counted == [("create", 1), ("delete", 2)]

    def test_non_final_flush_defers_instead_of_losing(self, monkeypatch):
        monkeypatch.setattr(gateway_client, "FLUSH_RETRY_LIMIT", 1)
        monkeypatch.setattr(gateway_client, "FLUSH_RETRY_BACKOFF_S", 0.2)
        injector = PlanFaultInjector(FaultPlan(seed=5))
        cluster = _cluster(faults=injector)
        client = _client(cluster, flush_max_pending=2, flush_age_s=1e9)
        injector.silence(1)
        client.create("/wb/parked", now=0.0, home_id=1)
        client.create("/wb/parked2", now=0.0, home_id=1)  # size trigger
        assert client.writeback.get("/wb/parked") is not None
        assert not client.lost_mutations
        # Home recovers: the next trigger retries to ack.
        injector.restore(1)
        report = client.flush_barrier(now=1.0)
        assert len(report.acked) == 2
        assert {"/wb/parked", "/wb/parked2"} <= _fleet_paths(cluster)

    def test_backoff_throttles_flushes_to_silenced_home(self, monkeypatch):
        monkeypatch.setattr(gateway_client, "FLUSH_RETRY_LIMIT", 1)
        monkeypatch.setattr(gateway_client, "FLUSH_RETRY_BACKOFF_S", 10.0)
        injector = PlanFaultInjector(FaultPlan(seed=5))
        cluster = _cluster(faults=injector)
        client = _client(cluster, flush_max_pending=1, flush_age_s=1e9)
        injector.silence(1)
        client.create("/wb/slow", now=0.0, home_id=1)
        attempts = client.backend_mutations
        # Within the backoff window further traffic must not re-flush.
        client.lookup("/other", now=0.1)
        client.create("/wb/slow2", now=0.2, home_id=1)
        assert client.backend_mutations == attempts


class TestZeroOverheadDisabled:
    def test_write_through_client_has_no_buffer(self):
        cluster = _cluster()
        client = MetadataClient(
            cluster,
            GatewayConfig(rate_per_s=1e6, burst=1e4, writeback=False),
        )
        assert client.writeback is None
        created = client.create("/wt/direct", now=0.0)
        assert created.outcome is Outcome.SERVED
        assert "/wt/direct" in _fleet_paths(cluster)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GatewayConfig(writeback=True, flush_max_pending=0)
        with pytest.raises(ValueError):
            GatewayConfig(writeback=True, flush_age_s=0.0)
