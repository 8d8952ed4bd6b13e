"""Process-level smoke for the TCP substrate (excluded from tier-1).

These tests launch real ``python -m repro.net serve`` OS processes via
:class:`~repro.net.supervisor.ProcessSupervisor` and talk to them over
real sockets: fleet bring-up, graceful STOP, and the SIGKILL
crash/restart drill where the replacement process resumes from a
``--checkpoint`` document instead of an empty store.
"""

import pytest

from repro.core.checkpoint import config_from_dict, config_to_dict, snapshot_server
from repro.core.config import GHBAConfig
from repro.core.server import MetadataServer
from repro.metadata.attributes import FileMetadata
from repro.net.supervisor import ProcessSupervisor
from repro.net.tcp import PortMap, TcpTransport
from repro.prototype.messages import Message, MessageKind

pytestmark = pytest.mark.slow


def _config():
    return GHBAConfig(expected_files_per_mds=512, lru_capacity=64)


def _driver(portmap):
    return TcpTransport(
        portmap, default_timeout_s=5.0, connect_attempts=5
    )


class TestProcessSupervisor:
    def test_fleet_round_trip_and_graceful_stop(self, tmp_path):
        config = _config()
        portmap = PortMap.reserve([0, 1])
        with ProcessSupervisor(portmap, config, tmp_path) as sup:
            for node_id in (0, 1):
                sup.launch_mds(node_id)
            driver = _driver(portmap)
            try:
                sup.wait_ready(driver, [0, 1])
                ack = driver.request(
                    0,
                    Message(
                        kind=MessageKind.INSERT,
                        sender=-1,
                        payload={"meta": FileMetadata("/proc/a", inode=1)},
                    ),
                )
                assert ack.payload["ok"] is True
                verify = driver.request(
                    0,
                    Message(
                        kind=MessageKind.VERIFY,
                        sender=-1,
                        payload={"path": "/proc/a"},
                    ),
                )
                assert verify.payload["found"] is True
                # Graceful STOP: the child process exits cleanly.
                assert sup.stop_mds(0, driver) == 0
                assert sup.stop_mds(1, driver) == 0
            finally:
                driver.close()

    def test_sigkill_crash_then_restart_from_checkpoint(self, tmp_path):
        config = _config()
        portmap = PortMap.reserve([0])
        paths = [f"/proc/ckpt/{i}" for i in range(6)]
        with ProcessSupervisor(portmap, config, tmp_path) as sup:
            sup.launch_mds(0)
            driver = _driver(portmap)
            try:
                sup.wait_ready(driver, [0])
                for i, path in enumerate(paths):
                    driver.request(
                        0,
                        Message(
                            kind=MessageKind.INSERT,
                            sender=-1,
                            payload={"meta": FileMetadata(path, inode=i + 1)},
                        ),
                    )
                # Build the checkpoint document the way the faults drill
                # does: replay the same inserts into a local twin and
                # snapshot it.  (The child's in-memory store dies with
                # the SIGKILL; the checkpoint is the durable copy.)
                twin = MetadataServer(0, config)
                for i, path in enumerate(paths):
                    twin.insert_metadata(FileMetadata(path, inode=i + 1))
                checkpoint = snapshot_server(twin)

                sup.kill_mds(0)
                sup.launch_mds(0, checkpoint=checkpoint)
                sup.wait_ready(driver, [0])
                batch = driver.request(
                    0,
                    Message(
                        kind=MessageKind.VERIFY_BATCH,
                        sender=-1,
                        payload={"paths": paths + ["/proc/ckpt/ghost"]},
                    ),
                )
                found = batch.payload["found"]
                assert all(found[path] for path in paths)
                assert found["/proc/ckpt/ghost"] is False
            finally:
                driver.close()

    def test_config_round_trips_through_json(self):
        config = _config()
        clone = config_from_dict(config_to_dict(config))
        assert config_to_dict(clone) == config_to_dict(config)
