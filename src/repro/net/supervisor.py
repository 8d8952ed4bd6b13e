"""Process supervisor: each MDS as a real OS process.

The supervisor owns the static :class:`~repro.net.tcp.PortMap`, launches
``python -m repro.net serve`` children wired to it, health-checks them
with PING over the real wire, and tears the fleet down (graceful STOP
first, SIGTERM/SIGKILL as the backstop).  Crash/restart testing reuses
the faults checkpoint machinery: a child started with ``--checkpoint``
resumes from a :func:`~repro.core.checkpoint.snapshot_server` document
instead of an empty store.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import repro
from repro.core.checkpoint import config_to_dict
from repro.core.config import GHBAConfig
from repro.net.reliability import TransportClosed
from repro.net.tcp import PortMap, TcpTransport
from repro.prototype.messages import Message, MessageKind

__all__ = ["ProcessSupervisor"]


class ProcessSupervisor:
    """Launches and manages one MDS process per node id.

    Parameters
    ----------
    portmap:
        Endpoints for every node the fleet will contain.
    config:
        Shared G-HBA configuration, serialized to each child.
    workdir:
        Where child config/checkpoint files and logs are written.
    """

    def __init__(
        self,
        portmap: PortMap,
        config: GHBAConfig,
        workdir: os.PathLike,
    ) -> None:
        self.portmap = portmap
        self.config = config
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._procs: Dict[int, subprocess.Popen] = {}
        self._logs: Dict[int, object] = {}
        config_path = self.workdir / "config.json"
        config_path.write_text(
            json.dumps(config_to_dict(config), indent=2, sort_keys=True)
        )
        self._config_path = config_path
        portmap_path = self.workdir / "portmap.json"
        portmap_path.write_text(portmap.to_json())
        self._portmap_path = portmap_path

    # ------------------------------------------------------------------
    # Environment for children
    # ------------------------------------------------------------------
    def _child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        return env

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def launch_mds(
        self, node_id: int, checkpoint: Optional[dict] = None
    ) -> subprocess.Popen:
        """Start one ``repro.net serve`` process for ``node_id``."""
        if node_id in self._procs and self._procs[node_id].poll() is None:
            raise RuntimeError(f"node {node_id} is already running")
        argv = [
            sys.executable,
            "-m",
            "repro.net",
            "serve",
            "--node-id",
            str(node_id),
            "--portmap-file",
            str(self._portmap_path),
            "--config-file",
            str(self._config_path),
        ]
        if checkpoint is not None:
            checkpoint_path = self.workdir / f"checkpoint-{node_id}.json"
            checkpoint_path.write_text(json.dumps(checkpoint))
            argv += ["--checkpoint", str(checkpoint_path)]
        self._close_log(node_id)  # of a previous, dead incarnation
        log = open(self.workdir / f"mds-{node_id}.log", "ab")
        self._logs[node_id] = log
        proc = subprocess.Popen(
            argv, env=self._child_env(), stdout=log, stderr=log
        )
        self._procs[node_id] = proc
        return proc

    def wait_ready(
        self,
        transport: TcpTransport,
        node_ids: List[int],
        timeout_s: float = 20.0,
    ) -> None:
        """Block until every node answers PING over the real wire."""
        deadline = time.monotonic() + timeout_s
        for node_id in node_ids:
            while True:
                proc = self._procs.get(node_id)
                if proc is not None and proc.poll() is not None:
                    raise RuntimeError(
                        f"mds {node_id} exited with {proc.returncode} "
                        f"before becoming ready (see mds-{node_id}.log)"
                    )
                try:
                    transport.request(
                        node_id,
                        Message(
                            kind=MessageKind.PING, sender=-1, payload={}
                        ),
                        timeout_s=0.5,
                        count=False,
                    )
                    break
                except (TimeoutError, TransportClosed):
                    if time.monotonic() > deadline:
                        raise RuntimeError(
                            f"mds {node_id} not ready within {timeout_s}s"
                        ) from None
                    time.sleep(0.05)

    def stop_mds(
        self,
        node_id: int,
        transport: Optional[TcpTransport] = None,
        timeout_s: float = 5.0,
    ) -> Optional[int]:
        """Graceful STOP over the wire, then terminate/kill."""
        proc = self._procs.get(node_id)
        if proc is None:
            return None
        if proc.poll() is None and transport is not None:
            try:
                transport.request(
                    node_id,
                    Message(kind=MessageKind.STOP, sender=-1, payload={}),
                    timeout_s=timeout_s,
                    count=False,
                )
            except Exception:
                pass
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._close_log(node_id)
        return proc.returncode

    def _close_log(self, node_id: int) -> None:
        log = self._logs.pop(node_id, None)
        if log is not None:
            log.close()

    def kill_mds(self, node_id: int) -> None:
        """Crash a node hard (SIGKILL) — the crash/restart harness."""
        proc = self._procs.get(node_id)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()

    def stop_all(self, transport: Optional[TcpTransport] = None) -> None:
        for node_id in list(self._procs):
            self.stop_mds(node_id, transport)
        for log in self._logs.values():
            log.close()
        self._logs.clear()

    def __enter__(self) -> "ProcessSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop_all()
