"""Unit tests for the cohort invalidation protocol (ISSUE 4 tentpole).

Covers the protocol pieces in isolation, without a trace replay:
record versioning and dedupe, gap detection → anti-entropy recovery,
subtree-rename invalidation across members (including the ``/a/b`` vs
``/a/bc`` prefix trap), suspicion → TTL clamp engagement/release, and
the exactly-once ``peer_missing`` accounting that must hold even when
duplication faults multiply protocol traffic (ISSUE 4 satellite 2).
"""

import pytest

from repro.core.config import GHBAConfig
from repro.core.cluster import GHBACluster
from repro.faults import FaultPlan, Partition, PlanFaultInjector
from repro.gateway import CohortConfig, GatewayConfig, GatewayCohort
from repro.gateway.cohort import InvalidationRecord
from repro.obs.trace import CollectingTracer


def _config(seed=33):
    return GHBAConfig(
        max_group_size=4,
        expected_files_per_mds=200,
        lru_capacity=128,
        lru_filter_bits=1 << 10,
        seed=seed,
    )


def _cluster(paths, seed=33):
    cluster = GHBACluster(8, _config(seed), seed=seed)
    cluster.populate(paths)
    cluster.synchronize_replicas(force=True)
    return cluster


def _cohort(paths, size=2, seed=33, **cfg_overrides):
    cfg_overrides.setdefault("gateway", GatewayConfig(lease_ttl_s=60.0))
    cohort = GatewayCohort(
        _cluster(paths, seed), size, CohortConfig(**cfg_overrides)
    )
    return cohort


def _counter(cohort, name, *labels):
    return cohort.counter_snapshot()[f"gateway_cohort_{name}_total"].get(
        labels, 0.0
    )


class TestInvalidationRecord:
    def test_payload_roundtrip(self):
        record = InvalidationRecord(
            origin=3, seq=17, op="rename", path="/a", new_path="/b", epoch=1.25
        )
        assert InvalidationRecord.from_payload(record.as_payload()) == record

    def test_to_event_carries_subtree_prefixes(self):
        record = InvalidationRecord(
            origin=0, seq=1, op="rename", path="/old", new_path="/new"
        )
        event = record.to_event()
        assert (event.op, event.path, event.new_path) == (
            "rename", "/old", "/new",
        )


class TestCohortConfig:
    def test_staleness_bound_covers_degraded_path(self):
        cfg = CohortConfig(
            heartbeat_interval_s=0.05,
            suspect_after_s=0.15,
            ttl_clamp_s=0.10,
        )
        # One heartbeat to notice the gap, the suspicion grace period,
        # then no lease survives past the clamp — plus tick slack.
        assert cfg.staleness_bound_s == pytest.approx(0.40)

    def test_heartbeat_slower_than_suspicion_rejected(self):
        with pytest.raises(ValueError):
            CohortConfig(heartbeat_interval_s=0.5, suspect_after_s=0.1)


class TestInvalidationPropagation:
    def test_delete_through_one_member_invalidates_the_other(self):
        cohort = _cohort(["/fs/a", "/fs/b"])
        left, right = cohort.members
        assert right.lookup("/fs/a", 0.0).found
        assert "/fs/a" in right.client.cache

        left.delete("/fs/a", 0.1)
        cohort.step(0.1)

        assert "/fs/a" not in right.client.cache
        assert _counter(cohort, "applied", "1", "delete") == 1
        assert not right.lookup("/fs/a", 0.2).found

    def test_rename_subtree_spares_sibling_prefix(self):
        # The /a/b vs /a/bc trap: renaming /fs/a/b must drop the peer's
        # /fs/a/b/f lease but leave /fs/a/bc/f untouched.
        cohort = _cohort(["/fs/a/b/f", "/fs/a/bc/f"])
        left, right = cohort.members
        right.lookup("/fs/a/b/f", 0.0)
        right.lookup("/fs/a/bc/f", 0.0)
        entry = right.client.cache.peek("/fs/a/bc/f")

        left.rename("/fs/a/b", "/fs/a/moved", 0.1)
        cohort.step(0.1)

        assert "/fs/a/b/f" not in right.client.cache
        assert right.client.cache.peek("/fs/a/bc/f") is entry

    def test_create_through_one_member_kills_peer_negative(self):
        cohort = _cohort(["/fs/a"])
        left, right = cohort.members
        assert not right.lookup("/fs/new", 0.0).found  # negative now cached
        assert right.client.cache.peek("/fs/new").negative

        left.create("/fs/new", 0.1)
        cohort.step(0.1)
        assert right.lookup("/fs/new", 0.2).found


class TestSequencing:
    def test_duplicate_records_discarded_once_applied(self):
        cohort = _cohort(["/fs/a"])
        left, right = cohort.members
        left.delete("/fs/a", 0.1)
        cohort.step(0.1)
        record = left.log.entries[0]

        assert right._ingest(record, 0.2) is False
        assert _counter(cohort, "duplicates", "1") == 1
        assert right.streams[0].floor == 1

    def test_gap_buffers_then_sync_recovers_in_order(self):
        cohort = _cohort(["/fs/a", "/fs/b", "/fs/c"])
        left, right = cohort.members
        for path in ("/fs/a", "/fs/b", "/fs/c"):
            right.lookup(path, 0.0)

        # Publish three deletes but feed the peer only seq 3: a gap.
        for index, path in enumerate(("/fs/a", "/fs/b", "/fs/c")):
            left.client.delete(path, 0.1)
            left.log.entries.append(
                InvalidationRecord(
                    origin=0, seq=index + 1, op="delete", path=path, epoch=0.1
                )
            )
        right._ingest(left.log.entries[2], 0.2)
        assert right.streams[0].floor == 0  # buffered, nothing applied
        assert right.gap_since[0] == 0.2
        assert _counter(cohort, "gaps", "1") == 1
        assert _counter(cohort, "sync_requests", "1") == 1

        # The sync request is in member 0's mailbox; one round trip heals.
        left.drain(0.3)
        right.drain(0.3)
        assert right.streams[0].floor == 3
        assert right.gap_since[0] is None
        assert all(
            path not in right.client.cache
            for path in ("/fs/a", "/fs/b", "/fs/c")
        )
        assert _counter(cohort, "sync_records", "1") == 2  # seq 1 and 2


class TestSuspicionAndClamp:
    def test_silent_peer_engages_clamp_then_release(self):
        cohort = _cohort(
            ["/fs/a"],
            heartbeat_interval_s=0.05,
            suspect_after_s=0.15,
            ttl_clamp_s=0.10,
        )
        left, right = cohort.members
        left.lookup("/fs/a", 0.0)
        lease = left.client.cache.peek("/fs/a")
        assert lease.expires_at > 1.0  # long lease while healthy

        # Only member 0 ticks: member 1 goes silent past suspect_after.
        left.tick(0.2)
        assert right.member_id in left.suspected
        assert left.clamped
        assert _counter(cohort, "peer_missing", "0", "1") == 1
        assert _counter(cohort, "clamp_engaged", "0") == 1
        # The surviving lease was shortened to the clamp.
        assert lease.expires_at <= 0.2 + 0.10

        # Peer heartbeats again: suspicion clears, clamp releases.
        right.tick(0.25)
        left.tick(0.3)
        assert not left.suspected
        assert not left.clamped
        assert _counter(cohort, "peer_recovered", "0", "1") == 1
        assert _counter(cohort, "clamp_released", "0") == 1

    def test_publish_reports_suspected_peer_missing_once(self):
        tracer = CollectingTracer()
        cohort = GatewayCohort(
            _cluster(["/fs/a", "/fs/b"]), 2,
            CohortConfig(suspect_after_s=0.1), tracer=tracer,
        )
        left, right = cohort.members
        left.tick(0.2)  # right never ticked: suspected
        assert right.member_id in left.suspected

        left._publish("delete", "/fs/a", "", 0.3)
        left._publish("delete", "/fs/b", "", 0.3)
        # One missing peer per publish, stable across repeated publishes.
        events = [
            event.detail
            for span in tracer.finished_spans()
            for event in span.events
            if event.kind == "cohort_publish"
        ]
        assert [(e["peers"], e["missing"]) for e in events] == [(1, 1), (1, 1)]


class TestMissingExactlyOnceUnderDuplication:
    """ISSUE 4 satellite 2: duplication faults must not double-count
    a peer outage — one partition window, one ``peer_missing`` tick."""

    def _run(self, duplicate_rate):
        plan = FaultPlan(
            seed=5,
            duplicate_rate=duplicate_rate,
            partitions=(Partition(start_s=0.5, end_s=1.0, island=(2,)),),
        )
        cluster = _cluster(["/fs/a", "/fs/b"], seed=5)
        cohort = GatewayCohort(
            cluster,
            3,
            CohortConfig(gateway=GatewayConfig(lease_ttl_s=60.0)),
            faults=PlanFaultInjector(plan, metrics=cluster.metrics),
        )
        clock = 0.0
        serial = 0
        while clock < 1.6:
            cohort.step(clock)
            # A steady mutation stream keeps INVALIDATE records on the
            # wire so duplication faults have something to duplicate.
            if serial % 4 == 0:
                publisher = cohort.members[serial % len(cohort.members)]
                publisher.create(f"/fs/n{serial}", clock)
            serial += 1
            clock += 0.025
        cohort.settle(1.6)
        return cohort

    def test_one_outage_counts_once_despite_duplicates(self):
        # Heavy duplication: every heartbeat may arrive many times, and
        # the islanded window makes both sides suspect each other.
        cohort = self._run(duplicate_rate=0.9)
        for gateway, peer in (("0", "2"), ("1", "2"), ("2", "0"), ("2", "1")):
            assert _counter(cohort, "peer_missing", gateway, peer) == 1, (
                gateway, peer,
            )
        # Members on the same side of the partition never suspected
        # each other.
        assert _counter(cohort, "peer_missing", "0", "1") == 0
        assert _counter(cohort, "peer_missing", "1", "0") == 0
        # And everyone recovered exactly once after the heal.
        for gateway, peer in (("0", "2"), ("1", "2"), ("2", "0"), ("2", "1")):
            assert _counter(cohort, "peer_recovered", gateway, peer) == 1

    def test_duplicate_records_do_not_reapply(self):
        cohort = self._run(duplicate_rate=0.9)
        total_dupes = sum(
            cohort.counter_snapshot()[
                "gateway_cohort_duplicates_total"
            ].values()
        )
        assert total_dupes > 0, "duplication faults never fired"
        # Dedupe means applied counts can never exceed published * peers.
        published = sum(
            cohort.counter_snapshot()[
                "gateway_cohort_published_total"
            ].values()
        )
        applied = sum(
            cohort.counter_snapshot()["gateway_cohort_applied_total"].values()
        )
        assert applied <= published * (len(cohort.members) - 1)


class TestWritebackFlushAckMinting:
    """Invalidation records are minted at flush-ack, never at enqueue
    (ISSUE 5): an unflushed mutation has not happened as far as the
    fleet — and every peer — is concerned."""

    def _writeback_cohort(self, paths):
        return _cohort(
            paths,
            gateway=GatewayConfig(
                lease_ttl_s=60.0,
                writeback=True,
                flush_max_pending=100,
                flush_age_s=1e9,
            ),
        )

    def test_buffered_create_publishes_nothing(self):
        cohort = self._writeback_cohort(["/fs/a"])
        left, right = cohort.members
        assert not right.lookup("/fs/new", 0.0).found  # negative cached
        left.create("/fs/new", 0.05)
        cohort.step(0.1)
        assert left.log.last == 0
        # The peer's negative lease is untouched: nothing happened yet.
        assert right.client.cache.peek("/fs/new").negative

    def test_flush_ack_mints_and_invalidates_peer(self):
        cohort = self._writeback_cohort(["/fs/a"])
        left, right = cohort.members
        assert not right.lookup("/fs/new", 0.0).found
        left.create("/fs/new", 0.05)
        cohort.flush_barrier(0.2)
        assert left.log.last == 1
        cohort.step(0.25)
        assert right.lookup("/fs/new", 0.3).found

    def test_lost_mutation_mints_nothing(self):
        cohort = self._writeback_cohort(["/fs/a"])
        left, _ = cohort.members
        # Enqueue, then absorb with a delete: the pair annihilates in
        # the buffer, the fleet never hears of it, nothing publishes.
        left.create("/fs/ghost", 0.0)
        left.delete("/fs/ghost", 0.1)
        cohort.flush_barrier(0.2)
        # The delete acked as an applied no-op (changed=False): no mint.
        assert left.log.last == 0


class TestLogTruncation:
    """Cumulative-ack-driven truncation of the invalidation log (the PR 4
    unbounded-log fix), and the two recovery paths a gap-recovering peer
    can take afterwards."""

    def _settled_cohort(self, publishes=5):
        cohort = _cohort(["/fs/a"])
        left, right = cohort.members
        clock = 0.0
        for i in range(publishes):
            left.create(f"/fs/t{i}", clock)
            clock += 0.06
            cohort.step(clock)
        # Extra heartbeat rounds so acks round-trip and truncation runs.
        clock = cohort.settle(clock + 0.5)
        return cohort, left, right, clock

    def test_acked_records_truncate(self):
        cohort, left, right, _ = self._settled_cohort()
        assert left.log.last == 5
        assert right.streams[left.member_id].floor == 5
        # Every record the peer acked is gone from memory; the offset
        # remembers where the log now starts.
        assert left.log.base == 5
        assert left.log.entries == []
        assert _counter(cohort, "log_truncated", "0") == 5

    def test_publishing_continues_after_truncation(self):
        cohort, left, right, clock = self._settled_cohort()
        left.create("/fs/after", clock)
        assert left.log.entries[-1].seq == left.log.last == 6
        cohort.settle(clock + 0.5)
        assert right.streams[left.member_id].floor == 6

    def test_sync_serves_offset_suffix_after_truncation(self):
        """A peer whose gap starts at or above the truncation floor
        recovers from the truncated log's suffix — no re-clamp."""
        cohort, left, right, clock = self._settled_cohort()
        # Two fresh records the peer has not heard yet (no step between).
        left.create("/fs/s1", clock)
        left.create("/fs/s2", clock)
        assert left.log.base == 5 and len(left.log.entries) == 2
        right._note_gap(left.member_id, clock + 1.0)
        cohort.settle(clock + 1.5)
        assert _counter(cohort, "sync_requests", "1") == 1
        assert right.streams[left.member_id].floor == 7
        # Recovery came record-by-record from the truncated suffix (the
        # multicast copies dedupe against it), never via the re-clamp.
        assert _counter(cohort, "reclamp", "1") == 0
        assert _counter(cohort, "applied", "1", "create") == 7

    def test_unrecoverable_gap_falls_back_to_reclamp(self):
        """A peer asking for records below the truncation floor cannot
        be caught up record-by-record: it skips the gap and clamps every
        surviving lease instead."""
        cohort, left, right, clock = self._settled_cohort()
        # Simulate reset state: the peer regressed below the floor.
        right.streams[left.member_id].floor = 0
        right.gap_since[left.member_id] = None
        right.lookup("/fs/a", clock)  # a live lease the clamp must bound
        right._note_gap(left.member_id, clock + 1.0)
        end = cohort.settle(clock + 1.5)
        assert _counter(cohort, "reclamp", "1") == 1
        # The gap closed by jumping to the floor, not replaying records.
        assert right.streams[left.member_id].floor >= left.log.base
        assert right.gap_since[left.member_id] is None
        entry = right.client.cache.peek("/fs/a")
        assert entry is not None
        assert entry.expires_at <= end + cohort.config.ttl_clamp_s + 1e-9

    def test_reclamp_applies_the_record_held_above_the_gap(self):
        """A record held above an unrecoverable gap is due once the
        re-clamp skips the gap: it is applied, not stranded."""
        cohort, left, right, clock = self._settled_cohort()
        right.streams[left.member_id].floor = 0
        right.gap_since[left.member_id] = None
        left.create("/fs/held", clock)  # seq 6, multicast to right
        right.drain(clock)  # held above the reset floor; sync requested
        assert list(right.streams[left.member_id].held) == [6]
        cohort.settle(clock)
        stream = right.streams[left.member_id]
        assert stream.floor == 6
        assert stream.held == {}
        assert not right.suspected
        assert not right.clamped
        assert _counter(cohort, "sync_requests", "1") == 1
        assert _counter(cohort, "reclamp", "1") == 1
