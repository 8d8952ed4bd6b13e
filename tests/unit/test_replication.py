"""Unit tests for the cross-cluster replication subsystem (ISSUE 8).

Covers the capture's per-home contiguity, the shipper's cumulative-ack
floor and truncation, the standby's dedup/gap/fencing state machine, the
divergence auditor's oracle (including its non-vacuity: a broken standby
must fail the audit), the controller's lag accounting, and the standby
checkpoint's durability round-trip.
"""

from __future__ import annotations

import json

import pytest

from repro.core import checkpoint as core_checkpoint
from repro.core.checkpoint import CheckpointError
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.metadata.attributes import FileMetadata
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SLOEngine, replication_objectives
from repro.prototype.transport import InProcessTransport
from repro.replication import (
    ChangeCapture,
    DivergenceAuditor,
    ReplicationController,
    ReplicationError,
    ReplicationShipper,
    StandbyEndpoint,
    StandbyNode,
    entry_from_wire,
    entry_to_wire,
    fence_probe,
    promote_standby,
)
from repro.replication.audit import diff_states, replay, snapshot_state
from repro.replication.cdc import CapturedChange


def _tiny_cluster(servers: int = 3, seed: int = 7) -> GHBACluster:
    config = GHBAConfig(
        max_group_size=4,
        expected_files_per_mds=256,
        lru_capacity=64,
        lru_filter_bits=1 << 10,
        seed=seed,
    )
    return GHBACluster(servers, config, seed=seed)


def _synced_pair(servers: int = 3):
    """A populated primary with capture attached, plus a synced standby
    endpoint (no threads, no transport — pure state machines)."""
    primary = _tiny_cluster(servers)
    primary.populate([f"/fs/d{i % 4}/f{i}" for i in range(40)])
    primary.synchronize_replicas(force=True)
    capture = ChangeCapture(keep_history=True)
    capture.attach(primary)
    standby = StandbyEndpoint()
    document = core_checkpoint.snapshot(primary)
    reply = standby.apply_sync(
        {
            "epoch": 1,
            "checkpoint": json.dumps(document),
            "base_seqs": {h: capture.last_seq(h) for h in capture.homes()},
        }
    )
    assert reply["ok"]
    return primary, capture, standby


class TestChangeCapture:
    def test_sequences_are_contiguous_per_home(self):
        primary = _tiny_cluster()
        capture = ChangeCapture()
        capture.attach(primary)
        for i in range(30):
            primary.insert_file(
                FileMetadata(path=f"/c/f{i}", inode=100 + i)
            )
        for i in range(0, 30, 3):
            primary.delete_file(f"/c/f{i}")
        for home in capture.homes():
            seqs = [e.seq for e in capture.logs[home].entries]
            assert seqs == list(range(1, len(seqs) + 1))

    def test_rename_captured_per_home(self):
        primary = _tiny_cluster()
        homes = set()
        capture = ChangeCapture()
        capture.attach(primary)
        for i in range(12):
            homes.add(
                primary.insert_file(
                    FileMetadata(path=f"/r/sub/f{i}", inode=200 + i)
                )
            )
        primary.rename_subtree("/r/sub", "/r/moved")
        for home in homes:
            renames = [
                e for e in capture.logs[home].entries if e.op == "rename"
            ]
            assert len(renames) == 1
            assert renames[0].path == "/r/sub"
            assert renames[0].new_path == "/r/moved"

    def test_detach_stops_capture(self):
        primary = _tiny_cluster()
        capture = ChangeCapture()
        capture.attach(primary)
        primary.insert_file(FileMetadata(path="/d/one", inode=1))
        total = sum(capture.last_seq(h) for h in capture.homes())
        capture.detach()
        primary.insert_file(FileMetadata(path="/d/two", inode=2))
        assert sum(capture.last_seq(h) for h in capture.homes()) == total

    def test_truncate_drops_acked_prefix_only(self):
        capture = ChangeCapture()
        for seq in range(1, 6):
            capture.capture("create", f"/t/f{seq}", 0, None, "")
        assert capture.truncate(0, 3) == 3
        assert [e.seq for e in capture.pending(0, 3)] == [4, 5]
        assert capture.last_seq(0) == 5  # sequences keep counting

    def test_wire_roundtrip(self):
        meta = FileMetadata(path="/w/f", inode=9, size=64, mtime=1.5)
        entry = CapturedChange(
            home_id=2, seq=7, op="create", path="/w/f",
            record=meta, vtime=2.25,
        )
        back = entry_from_wire(2, entry_to_wire(entry))
        assert back == entry


class TestStandbyEndpoint:
    def test_contiguous_batch_applies_and_acks(self):
        primary, capture, standby = _synced_pair()
        home = primary.insert_file(FileMetadata(path="/n/a", inode=900))
        base = capture.last_seq(home) - 1
        reply = standby.apply_ship(
            {
                "home": home,
                "epoch": 1,
                "acked": base,
                "entries": [
                    entry_to_wire(e) for e in capture.pending(home, base)
                ],
            }
        )
        assert reply["applied"] == 1
        assert reply["acked"] == base + 1
        assert standby.cluster.home_of("/n/a") == home

    def test_duplicates_are_not_reapplied(self):
        primary, capture, standby = _synced_pair()
        home = primary.insert_file(FileMetadata(path="/n/b", inode=901))
        base = capture.last_seq(home) - 1
        batch = {
            "home": home,
            "epoch": 1,
            "acked": base,
            "entries": [
                entry_to_wire(e) for e in capture.pending(home, base)
            ],
        }
        first = standby.apply_ship(batch)
        second = standby.apply_ship(batch)  # retry replay
        assert first["applied"] == 1
        assert second["applied"] == 0
        assert second["duplicates"] == 1
        assert second["acked"] == first["acked"]

    def test_gap_stalls_batch_until_retransmit(self):
        primary, capture, standby = _synced_pair()
        home = primary.insert_file(FileMetadata(path="/n/c1", inode=902))
        primary.insert_file(
            FileMetadata(path="/n/c2", inode=903), home_id=home
        )
        base = capture.last_seq(home) - 2
        pending = capture.pending(home, base)
        # Ship only the SECOND entry: a reorder the floor must reject.
        reply = standby.apply_ship(
            {
                "home": home,
                "epoch": 1,
                "acked": base,
                "entries": [entry_to_wire(pending[1])],
            }
        )
        assert reply["gap"] is True
        assert reply["applied"] == 0
        assert reply["acked"] == base
        # Retransmit from the floor heals it.
        reply = standby.apply_ship(
            {
                "home": home,
                "epoch": 1,
                "acked": base,
                "entries": [entry_to_wire(e) for e in pending],
            }
        )
        assert reply["applied"] == 2
        assert reply["acked"] == base + 2

    def test_entry_raising_halfway_keeps_the_applied_prefix(self):
        """A batch whose second entry raises has already applied its
        first: the floor records that prefix, so the retry replays it as
        a duplicate instead of applying it twice."""
        primary, capture, standby = _synced_pair()
        home = primary.insert_file(FileMetadata(path="/n/r1", inode=905))
        primary.insert_file(
            FileMetadata(path="/n/r2", inode=906), home_id=home
        )
        good = [entry_to_wire(e) for e in capture.pending(home, 0)]
        assert [e["seq"] for e in good] == [1, 2]
        broken = [good[0], dict(good[1], record=None)]
        with pytest.raises(ReplicationError):
            standby.apply_ship(
                {"home": home, "epoch": 1, "acked": 0, "entries": broken}
            )
        assert standby.floors[home] == 1
        assert standby.applied_total == 1
        reply = standby.apply_ship(
            {"home": home, "epoch": 1, "acked": 0, "entries": good}
        )
        assert reply["applied"] == 1
        assert reply["duplicates"] == 1
        assert reply["acked"] == 2
        assert standby.applied_total == 2

    def test_promotion_fences_old_epoch(self):
        primary, capture, standby = _synced_pair()
        promo = standby.apply_promote({})
        assert promo["promoted"] is True
        home = primary.insert_file(FileMetadata(path="/n/d", inode=904))
        base = capture.last_seq(home) - 1
        reply = standby.apply_ship(
            {
                "home": home,
                "epoch": 1,
                "acked": base,
                "entries": [
                    entry_to_wire(e) for e in capture.pending(home, base)
                ],
            }
        )
        assert reply["fenced"] is True
        assert standby.cluster.home_of("/n/d") is None
        # Sync from the dead epoch is fenced too.
        sync = standby.apply_sync(
            {"epoch": 1, "checkpoint": "{}", "base_seqs": {}}
        )
        assert sync["fenced"] is True

    def test_ship_before_sync_acks_nothing(self):
        standby = StandbyEndpoint()
        reply = standby.apply_ship(
            {
                "home": 0,
                "epoch": 1,
                "acked": 0,
                "entries": [
                    entry_to_wire(
                        CapturedChange(
                            home_id=0, seq=1, op="create", path="/x",
                            record=FileMetadata(path="/x", inode=1),
                        )
                    )
                ],
            }
        )
        assert reply["unsynced"] is True
        assert reply["acked"] == 0

    def test_unknown_op_raises(self):
        primary, capture, standby = _synced_pair()
        with pytest.raises(ReplicationError):
            standby._apply(
                CapturedChange(home_id=0, seq=99, op="chmod", path="/x")
            )
        with pytest.raises(ReplicationError):
            standby._apply(
                CapturedChange(
                    home_id=0, seq=99, op="create", path="/x", record=None
                )
            )


class TestShipperFloor:
    def _wired(self):
        primary, capture, _ = _synced_pair()
        registry = MetricsRegistry()
        transport = InProcessTransport(default_timeout_s=5.0)
        node = StandbyNode(50, transport)
        node.start()
        shipper = ReplicationShipper(
            capture, transport, 50, epoch=1, metrics=registry
        )
        assert shipper.sync()["ok"]
        return primary, capture, shipper, node, registry

    def test_ship_advances_floor_and_truncates(self):
        primary, capture, shipper, node, _ = self._wired()
        try:
            homes = set()
            for i in range(10):
                homes.add(
                    primary.insert_file(
                        FileMetadata(path=f"/s/f{i}", inode=300 + i)
                    )
                )
            report = shipper.ship(now=1.0)
            assert report.acked_entries == 10
            for home in homes:
                assert shipper.floors[home] == capture.last_seq(home)
                assert capture.pending(home, 0) == []  # truncated
            # Standby converged with the primary.
            assert diff_states(
                snapshot_state(primary),
                snapshot_state(node.endpoint.cluster),
            ) == []
        finally:
            node.stop()

    def test_fenced_shipper_latches(self):
        primary, capture, shipper, node, _ = self._wired()
        try:
            promote_standby(shipper.transport, 50)
            primary.insert_file(FileMetadata(path="/s/late", inode=999))
            report = shipper.ship(now=2.0)
            assert report.fenced == 1
            assert shipper.fenced is True
            assert shipper.ship(now=3.0).ships == 0  # refuses to ship
            probe = fence_probe(shipper.transport, 50, epoch=1)
            assert probe["fenced"] is True
        finally:
            node.stop()

    def test_controller_lag_and_slo(self):
        primary, capture, shipper, node, registry = self._wired()
        try:
            controller = ReplicationController(
                capture, shipper, metrics=registry
            )
            capture.advance(1.0)
            primary.insert_file(FileMetadata(path="/s/lag", inode=500))
            controller.tick(now=1.5)  # acked 500 virtual ms later
            assert controller.lag_percentile(50) == pytest.approx(500.0)
            results = SLOEngine(
                registry, objectives=replication_objectives()
            ).evaluate()
            assert all(r.ok for r in results)
            assert {r.objective.name for r in results} == {
                "replication-ship-lag",
                "replication-ship-availability",
            }
        finally:
            node.stop()


class TestDivergenceAuditor:
    def test_clean_switchover_passes(self):
        primary, capture, standby = _synced_pair()
        auditor = DivergenceAuditor()
        auditor.note_base(
            primary, {h: capture.last_seq(h) for h in capture.homes()}
        )
        floors = {}
        for i in range(8):
            home = primary.insert_file(
                FileMetadata(path=f"/a/f{i}", inode=600 + i)
            )
            base = standby.floors.get(home, 0)
            standby.apply_ship(
                {
                    "home": home,
                    "epoch": 1,
                    "acked": base,
                    "entries": [
                        entry_to_wire(e)
                        for e in capture.pending(home, base)
                    ],
                }
            )
            floors[home] = standby.floors[home]
        report = auditor.audit_switchover(
            standby.cluster, capture.history, floors,
            dict(standby.floors), kill_vtime=1.0,
        )
        assert report.ok
        assert report.rpo_mutations == 0

    def test_unacked_tail_is_rpo_not_divergence(self):
        primary, capture, standby = _synced_pair()
        auditor = DivergenceAuditor()
        auditor.note_base(
            primary, {h: capture.last_seq(h) for h in capture.homes()}
        )
        capture.advance(2.0)
        primary.insert_file(FileMetadata(path="/a/lost", inode=700))
        # Never shipped: the primary dies here.
        report = auditor.audit_switchover(
            standby.cluster, capture.history, {}, dict(standby.floors),
            kill_vtime=2.5,
        )
        assert report.ok  # legitimate async loss, not divergence
        assert report.rpo_mutations == 1
        assert report.rpo_virtual_ms == pytest.approx(500.0)

    def test_broken_standby_fails_audit(self):
        """Non-vacuity: a standby that lied about an apply must FAIL."""
        primary, capture, standby = _synced_pair()
        auditor = DivergenceAuditor()
        auditor.note_base(
            primary, {h: capture.last_seq(h) for h in capture.homes()}
        )
        home = primary.insert_file(FileMetadata(path="/a/gone", inode=800))
        # Claim the entry was acked without applying it.
        floors = {home: capture.last_seq(home)}
        report = auditor.audit_switchover(
            standby.cluster, capture.history, floors,
            dict(standby.floors), kill_vtime=1.0,
        )
        assert not report.ok
        assert report.lost_acked == 1
        assert any("/a/gone" in d for d in report.divergences)

    def test_replay_rename_respects_home(self):
        state = {"/r/a": (0, 1), "/r/b": (1, 2)}
        out = replay(
            state,
            [
                CapturedChange(
                    home_id=0, seq=1, op="rename",
                    path="/r", new_path="/m",
                )
            ],
        )
        assert out == {"/m/a": (0, 1), "/r/b": (1, 2)}


class TestStandbyDurability:
    def test_checkpoint_roundtrip(self, tmp_path):
        primary, capture, standby = _synced_pair()
        home = primary.insert_file(FileMetadata(path="/p/f", inode=111))
        base = standby.floors.get(home, 0)
        standby.apply_ship(
            {
                "home": home,
                "epoch": 1,
                "acked": base,
                "entries": [
                    entry_to_wire(e) for e in capture.pending(home, base)
                ],
            }
        )
        path = tmp_path / "standby.json"
        standby.save(path)
        restored = StandbyEndpoint.load(path)
        assert restored.floors == standby.floors
        assert restored.epoch == standby.epoch
        assert restored.cluster.home_of("/p/f") == home
        # The replayed retry is a duplicate on the restored endpoint.
        reply = restored.apply_ship(
            {
                "home": home,
                "epoch": 1,
                "acked": base,
                "entries": [
                    entry_to_wire(e) for e in capture.history
                    if e.home_id == home and e.seq > base
                ],
            }
        )
        assert reply["applied"] == 0
        assert reply["duplicates"] == 1

    def test_corrupt_checkpoint_raises_typed_error(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"standby_format": 1, "epo', encoding="utf-8")
        with pytest.raises(CheckpointError):
            StandbyEndpoint.load(path)

    def test_unknown_format_rejected(self):
        with pytest.raises(CheckpointError):
            StandbyEndpoint.restore_doc({"standby_format": 99})
