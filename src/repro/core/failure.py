"""Heartbeat-based failure detection (paper Section 4.5).

"Heart-beats are exchanged periodically among MDSs within each group.  Once
an MDS failure is detected, the corresponding Bloom filters are removed
from the other MDSs to reduce the number of false positives."

:class:`HeartbeatMonitor` runs that protocol on the caller's virtual clock,
like every other timed component: :meth:`HeartbeatMonitor.advance` runs
each round due by ``now``, one every ``heartbeat_interval_s``.  In a round
every live server beats to its group peers, then the peers look for a
member silent for longer than ``heartbeat_timeout_s``; a live peer declares
it failed and it is excised from every Bloom structure via
:meth:`GHBACluster.fail_server`.  The metadata service remains functional
at degraded coverage, exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.core.cluster import GHBACluster


@dataclass
class FailureEvent:
    """One detected failure."""

    server_id: int
    detected_at: float
    detected_by: int
    last_heartbeat_at: float


class HeartbeatMonitor:
    """Group-scoped heartbeat exchange and failure detection.

    Heartbeat timing comes from ``cluster.config``
    (``heartbeat_interval_s`` / ``heartbeat_timeout_s``).  The monitor's
    clock starts at 0 with every member just heard from; a server that
    joins later is watched from the first round that sees it.
    """

    def __init__(self, cluster: GHBACluster) -> None:
        self.cluster = cluster
        self._now = 0.0
        self._next_round = cluster.config.heartbeat_interval_s
        self._last_seen: Dict[int, float] = dict.fromkeys(cluster.server_ids(), 0.0)
        self._down: Set[int] = set()
        self.failures: List[FailureEvent] = []
        self.heartbeats_sent = 0

    def advance(self, now: float) -> None:
        """Run every round due by ``now`` (the clock never goes backward)."""
        if now < self._now:
            raise ValueError(f"clock went backward: {now} < {self._now}")
        self._now = now
        while self._next_round <= now:
            self._round(self._next_round)
            self._next_round += self.cluster.config.heartbeat_interval_s

    def crash(self, server_id: int) -> None:
        """Silence ``server_id``: it stops beating but is not yet excised.

        Detection and excision happen only when the timeout elapses — the
        window during which the paper's stale-filter misrouting risk exists.
        """
        if server_id not in self.cluster.servers:
            raise KeyError(f"unknown server {server_id}")
        self._down.add(server_id)

    def detected(self, server_id: int) -> bool:
        return any(event.server_id == server_id for event in self.failures)

    def _round(self, now: float) -> None:
        """Every live server beats to its group peers; then the peers look
        for members whose beats have gone silent."""
        cluster = self.cluster
        last_seen = self._last_seen
        for server_id in [s for s in last_seen if s not in cluster.servers]:
            del last_seen[server_id]
        for server_id in cluster.server_ids():
            if server_id in self._down:
                last_seen.setdefault(server_id, now)
            else:
                last_seen[server_id] = now
                self.heartbeats_sent += cluster.group_of(server_id).size - 1
        timeout = cluster.config.heartbeat_timeout_s
        for server_id, last in list(last_seen.items()):
            if now - last <= timeout:
                continue
            witnesses = [
                peer
                for peer in cluster.group_of(server_id).member_ids()
                if peer != server_id and peer not in self._down
            ]
            if not witnesses:
                continue  # nobody alive observed the silence
            self.failures.append(
                FailureEvent(
                    server_id=server_id,
                    detected_at=now,
                    detected_by=witnesses[0],
                    last_heartbeat_at=last,
                )
            )
            del last_seen[server_id]
            self._down.discard(server_id)
            cluster.fail_server(server_id)

    def __repr__(self) -> str:
        return (
            f"HeartbeatMonitor(tracked={len(self._last_seen)}, "
            f"failures={len(self.failures)})"
        )
