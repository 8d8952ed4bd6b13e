"""Integration tests for cross-cluster replication (ISSUE 8).

The full drill (kill + promote + audit + redirect) in-process, standby
crash/restore durability through the checkpoint file, the MUTATE_BATCH
CDC hook on the prototype node, and the TCP smoke: the same protocol
over real localhost sockets.
"""

from __future__ import annotations

import dataclasses
import json
import threading

import pytest

from repro.metadata.attributes import FileMetadata
from repro.net.tcp import PortMap, TcpTransport
from repro.prototype.transport import InProcessTransport
from repro.replication import (
    ChangeCapture,
    ReplicationShipper,
    StandbyEndpoint,
    StandbyNode,
    promote_standby,
)
from repro.replication.__main__ import main as replication_main
from repro.replication.audit import diff_states, snapshot_state
from repro.replication.drill import DrillSpec, run_drill
from repro.scenario import run_scenario

SMALL = DrillSpec(servers=3, files=120, ops=400, seed=11, dirs=6, redirect_ops=120)


def _drill(json_path=None, **overrides) -> int:
    """The drill through the scenario shell, as the CLI runs it."""
    return run_scenario(
        "replication",
        run_drill,
        dataclasses.replace(SMALL, **overrides),
        json_path=json_path,
        json_key="replication",
    )


class TestDrillEndToEnd:
    def test_inproc_drill_passes(self, capsys, tmp_path):
        out_json = tmp_path / "bench.json"
        code = _drill(json_path=str(out_json))
        captured = capsys.readouterr().out
        assert code == 0
        assert "PASS" in captured
        assert "fenced=True" in captured
        document = json.loads(out_json.read_text())
        stats = document["replication"]
        assert stats["divergences"] == 0
        assert stats["lost_acked"] == 0
        assert stats["fenced_ok"] is True
        assert stats["redirect"]["mismatches"] == 0
        assert "_meta" in document

    def test_chaos_drill_still_zero_divergence(self, capsys):
        code = _drill(chaos=True, seed=23)
        captured = capsys.readouterr().out
        assert code == 0
        assert "divergences=0 lost_acked=0" in captured

    def test_rpo_bound_enforced(self, capsys):
        # An impossible bound must flip the exit code, proving the gate
        # is wired to the measured RPO and not vacuous.
        code = _drill(ship_every=10_000, rpo_bound=0)
        captured = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in captured


class TestDrillSpec:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("ship_every", 0),
            ("kill_at", 0.0),
            ("kill_at", 1.5),
            ("ops", 0),
            ("files", -3),
            ("servers", 0),
            ("dirs", 0),
            ("redirect_ops", -1),
            ("transport", "udp"),
        ],
    )
    def test_out_of_range_field_is_a_value_error(self, field, value):
        with pytest.raises(ValueError, match=field):
            DrillSpec(**{field: value})

    @pytest.mark.parametrize(
        "flags",
        [
            ["--ship-every", "0"],
            ["--rate", "0"],  # no such flag: the clock step is a constant
            ["--kill-at", "0"],
            ["--kill-at", "1.01"],
            ["--ops", "-5"],
            ["--files", "0"],
            ["--servers", "0"],
            ["--redirect-ops", "-1"],
        ],
    )
    def test_out_of_range_flag_is_a_usage_error(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            replication_main(["drill", *flags])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    def test_whole_trace_kill_is_in_range(self):
        assert DrillSpec(kill_at=1.0).kill_at == 1.0


def _tcp_threads():
    return [t for t in threading.enumerate() if t.name.startswith("tcp-transport")]


class TestDrillTeardown:
    """The standby thread and (over TCP) both transports go away on
    every exit path of the drill."""

    @pytest.fixture
    def opened(self, monkeypatch):
        """Every standby the drill starts and every transport it closes."""
        seen = {"standbys": [], "closed": []}
        start, close = StandbyNode.start, TcpTransport.close

        def tracked_start(node):
            seen["standbys"].append(node)
            start(node)

        def tracked_close(transport):
            seen["closed"].append(transport)
            close(transport)

        monkeypatch.setattr(StandbyNode, "start", tracked_start)
        monkeypatch.setattr(TcpTransport, "close", tracked_close)
        return seen

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_rejected_bootstrap_stops_the_standby(
        self, transport, opened, monkeypatch
    ):
        monkeypatch.setattr(
            ReplicationShipper, "sync", lambda self, now=0.0: {"ok": False}
        )
        result = run_drill(dataclasses.replace(SMALL, transport=transport))
        assert result.failures == ["standby bootstrap rejected: {'ok': False}"]
        assert "PASS" not in result.report
        [standby] = opened["standbys"]
        assert not standby.is_alive()
        assert len(opened["closed"]) == (2 if transport == "tcp" else 0)
        assert _tcp_threads() == []

    def test_a_failed_standby_stop_is_a_failure(self, opened, monkeypatch):
        stop = StandbyNode.stop

        def stop_then_fail(node, timeout_s=5.0):
            stop(node, timeout_s)
            raise RuntimeError("stuck")

        monkeypatch.setattr(StandbyNode, "stop", stop_then_fail)
        result = run_drill(dataclasses.replace(SMALL, transport="tcp"))
        assert result.failures == ["standby did not stop: RuntimeError('stuck')"]
        assert "PASS" not in result.report
        assert len(opened["closed"]) == 2
        assert _tcp_threads() == []


class TestStandbyCrashRestore:
    def test_restart_from_checkpoint_dedups_replays(self, tmp_path):
        """Kill the standby thread after an ack, restart it from its
        durable checkpoint, and replay the same batch: the restored
        endpoint must treat it as duplicates (persist-before-ack)."""
        from repro.core.cluster import GHBACluster
        from repro.core.config import GHBAConfig

        config = GHBAConfig(
            max_group_size=4, expected_files_per_mds=256,
            lru_capacity=64, lru_filter_bits=1 << 10, seed=7,
        )
        primary = GHBACluster(3, config, seed=7)
        primary.populate([f"/cr/d{i % 3}/f{i}" for i in range(30)])
        primary.synchronize_replicas(force=True)
        capture = ChangeCapture(keep_history=True)
        capture.attach(primary)

        ckpt = tmp_path / "standby.json"
        transport = InProcessTransport(default_timeout_s=5.0)
        node = StandbyNode(60, transport, checkpoint_path=str(ckpt))
        node.start()
        shipper = ReplicationShipper(capture, transport, 60, epoch=1)
        assert shipper.sync()["ok"]

        homes = set()
        for i in range(12):
            homes.add(
                primary.insert_file(
                    FileMetadata(path=f"/cr/new{i}", inode=400 + i)
                )
            )
        report = shipper.ship(now=1.0)
        assert report.acked_entries == 12
        floors_before = dict(node.endpoint.floors)
        node.stop()

        # Crash + restart: a fresh endpoint from the durable file.
        endpoint = StandbyEndpoint.load(
            ckpt, node_id=60, checkpoint_path=str(ckpt)
        )
        assert endpoint.floors == floors_before
        node2 = StandbyNode(60, transport)
        node2.endpoint = endpoint
        node2.start()
        try:
            # Replay the entire acked history: all duplicates.
            replayed = 0
            for home in homes:
                entries = [
                    e for e in capture.history if e.home_id == home
                ]
                from repro.replication.cdc import entry_to_wire
                from repro.prototype.messages import Message, MessageKind

                reply = transport.request(
                    60,
                    Message(
                        kind=MessageKind.REPL_SHIP,
                        sender=-50,
                        payload={
                            "home": home,
                            "epoch": 1,
                            "acked": 0,
                            "entries": [
                                entry_to_wire(e) for e in entries
                            ],
                        },
                    ),
                )
                assert reply.payload["applied"] == 0
                replayed += reply.payload["duplicates"]
            assert replayed == 12
            assert diff_states(
                snapshot_state(primary),
                snapshot_state(node2.endpoint.cluster),
            ) == []
        finally:
            node2.stop()


class TestPrototypeCdcHook:
    def test_mutate_batch_feeds_capture(self):
        """The MDSNode cdc hook captures exactly the applied mutations
        of a MUTATE_BATCH (arbitration-rejected ones never ship)."""
        from repro.core.config import GHBAConfig
        from repro.prototype.messages import Message, MessageKind
        from repro.prototype.node import MDSNode

        config = GHBAConfig(expected_files_per_mds=256, lru_capacity=64)
        transport = InProcessTransport(default_timeout_s=5.0)
        node = MDSNode(0, config, transport)
        capture = ChangeCapture()
        node.cdc = lambda op, path, record, vtime: capture.capture(
            op, path, home_id=0, record=record
        )
        node.start()
        try:
            meta = FileMetadata(path="/proto/a", inode=5)
            reply = transport.request(
                0,
                Message(
                    kind=MessageKind.MUTATE_BATCH,
                    sender=-9,
                    payload={
                        "origin": -9,
                        "acked": 0,
                        "mutations": [
                            {
                                "version": 1,
                                "op": "create",
                                "path": "/proto/a",
                                "record": meta,
                            },
                            {
                                "version": 2,
                                "op": "delete",
                                "path": "/proto/missing",
                                "record": None,
                            },
                        ],
                    },
                ),
            )
            outcomes = reply.payload["outcomes"]
            changed = [o for o in outcomes if o["changed"]]
            assert len(changed) == 1  # the no-op delete never applied
            ops = [(e.op, e.path) for e in capture.logs[0].entries]
            assert ops == [("create", "/proto/a")]
        finally:
            node.stop()


class TestTcpReplication:
    def test_ship_and_promote_over_sockets(self):
        portmap = PortMap.reserve([70])
        serve = TcpTransport(portmap, default_timeout_s=5.0)
        client = TcpTransport(portmap, default_timeout_s=5.0)
        node = StandbyNode(70, serve)
        node.start()
        try:
            from repro.core.cluster import GHBACluster
            from repro.core.config import GHBAConfig

            config = GHBAConfig(
                max_group_size=4, expected_files_per_mds=256,
                lru_capacity=64, lru_filter_bits=1 << 10, seed=3,
            )
            primary = GHBACluster(2, config, seed=3)
            primary.populate([f"/tcp/f{i}" for i in range(20)])
            primary.synchronize_replicas(force=True)
            capture = ChangeCapture(keep_history=True)
            capture.attach(primary)
            shipper = ReplicationShipper(capture, client, 70, epoch=1)
            assert shipper.sync()["ok"]
            for i in range(8):
                primary.insert_file(
                    FileMetadata(path=f"/tcp/new{i}", inode=500 + i)
                )
            report = shipper.ship(now=1.0)
            assert report.acked_entries == 8
            assert diff_states(
                snapshot_state(primary),
                snapshot_state(node.endpoint.cluster),
            ) == []
            promo = promote_standby(client, 70)
            assert promo["promoted"] is True
            primary.insert_file(FileMetadata(path="/tcp/late", inode=9))
            late = shipper.ship(now=2.0)
            assert late.fenced == 1
            assert node.endpoint.cluster.home_of("/tcp/late") is None
        finally:
            node.stop()
            serve.close()
            client.close()

    def test_tcp_drill_passes(self, capsys):
        code = _drill(
            transport="tcp", files=80, ops=240, redirect_ops=80, seed=5
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "PASS" in captured
