"""Divergence + RPO audit for the switchover drill.

Modeled on :class:`repro.gateway.staleness.StalenessAuditor`: the
checker lives in ``src`` so the drill, the CI gate, and the tests all
share one implementation.

The oracle is a replay: starting from the sync-time base state (path →
(home, inode)), apply every captured entry the primary claims was
acknowledged (``seq <= shipper floor``, per home, in seq order).  The
promoted standby must equal that state **exactly** — any difference is
a divergence, and a standby floor below the shipper's floor is an
un-acked-but-claimed mutation (``lost_acked``): the primary believed a
mutation durable on the standby that the standby does not admit.

RPO is what async replication *legitimately* loses at the kill: the
entries captured but never acknowledged — reported both as a mutation
count and as virtual milliseconds (age of the oldest unacked entry at
the kill instant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.core.cluster import GHBACluster
from repro.metadata.namespace import is_under
from repro.replication.cdc import CapturedChange

#: Oracle state: path -> (home_id, inode).
State = Dict[str, Tuple[int, int]]


def snapshot_state(cluster: GHBACluster) -> State:
    """Flatten a cluster's records into the oracle's state form."""
    state: State = {}
    for server_id in cluster.server_ids():
        server = cluster.servers[server_id]
        for meta in server.store.records():
            state[meta.path] = (server_id, meta.inode)
    return state


def replay(state: State, entries: Iterable[CapturedChange]) -> State:
    """Apply captured entries to an oracle state (pure, copies input)."""
    result = dict(state)
    for entry in entries:
        if entry.op == "create":
            inode = entry.record.inode if entry.record is not None else 0
            result[entry.path] = (entry.home_id, inode)
        elif entry.op == "delete":
            result.pop(entry.path, None)
        elif entry.op == "rename":
            old, new = entry.path, entry.new_path
            victims = [
                path
                for path, (home, _inode) in result.items()
                if home == entry.home_id and is_under(path, old)
            ]
            for path in victims:
                home, inode = result.pop(path)
                result[new + path[len(old):]] = (home, inode)
        else:
            raise ValueError(f"unknown captured op {entry.op!r}")
    return result


def diff_states(expected: State, actual: State) -> List[str]:
    """Deterministic, human-readable divergence list (empty = equal)."""
    divergences: List[str] = []
    for path in sorted(set(expected) | set(actual)):
        want = expected.get(path)
        have = actual.get(path)
        if want == have:
            continue
        if have is None:
            divergences.append(
                f"missing {path} (expected home={want[0]} inode={want[1]})"
            )
        elif want is None:
            divergences.append(
                f"extra {path} (home={have[0]} inode={have[1]})"
            )
        else:
            divergences.append(
                f"mismatch {path} (expected home={want[0]} inode={want[1]}, "
                f"got home={have[0]} inode={have[1]})"
            )
    return divergences


@dataclass
class SwitchoverReport:
    """The audited outcome of one primary-kill + promotion."""

    divergences: List[str] = field(default_factory=list)
    #: Claimed-acked seqs the standby does not admit (must be 0).
    lost_acked: int = 0
    #: Entries captured but never acknowledged — the measured RPO.
    rpo_mutations: int = 0
    #: Virtual age of the oldest unacknowledged entry at the kill.
    rpo_virtual_ms: float = 0.0
    acked_entries: int = 0
    captured_entries: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences and self.lost_acked == 0


class DivergenceAuditor:
    """Replays the acked change stream and checks the promoted standby.

    Usage: record the base state at sync time (:meth:`note_base`), let
    the capture keep full history (``keep_history=True``), then call
    :meth:`audit_switchover` after promotion.  The auditor is
    deliberately independent of the shipper/standby implementation —
    it trusts only the captured entries and the two floor maps.
    """

    def __init__(self, metrics=None) -> None:
        self.base: State = {}
        self.base_seqs: Dict[int, int] = {}
        self._checked = None
        if metrics is not None:
            self._checked = metrics.counter(
                "replication_audited_paths_total",
                "Paths compared between oracle replay and standby.",
            )
            self._diverged = metrics.counter(
                "replication_divergences_total",
                "Oracle/standby differences found at audit.",
            )

    def note_base(
        self, cluster: GHBACluster, base_seqs: Dict[int, int]
    ) -> None:
        """Snapshot the primary at sync time (what REPL_SYNC shipped)."""
        self.base = snapshot_state(cluster)
        self.base_seqs = dict(base_seqs)

    def audit_switchover(
        self,
        standby_cluster: GHBACluster,
        history: Iterable[CapturedChange],
        shipper_floors: Dict[int, int],
        standby_floors: Dict[int, int],
        kill_vtime: float,
    ) -> SwitchoverReport:
        report = SwitchoverReport()
        entries = sorted(
            (e for e in history), key=lambda e: (e.home_id, e.seq)
        )
        acked: List[CapturedChange] = []
        unacked: List[CapturedChange] = []
        for entry in entries:
            base = self.base_seqs.get(entry.home_id, 0)
            if entry.seq <= base:
                continue  # included in the sync checkpoint itself
            floor = shipper_floors.get(entry.home_id, 0)
            (acked if entry.seq <= floor else unacked).append(entry)
        report.captured_entries = len(acked) + len(unacked)
        report.acked_entries = len(acked)
        # Un-acked-but-claimed: the primary's floor beyond the standby's.
        for home, floor in sorted(shipper_floors.items()):
            admitted = standby_floors.get(home, 0)
            if admitted < floor:
                report.lost_acked += floor - admitted
        expected = replay(self.base, acked)
        actual = snapshot_state(standby_cluster)
        report.divergences = diff_states(expected, actual)
        report.rpo_mutations = len(unacked)
        if unacked:
            oldest = min(e.vtime for e in unacked)
            report.rpo_virtual_ms = max(0.0, (kill_vtime - oldest) * 1000.0)
        if self._checked is not None:
            self._checked.inc(len(set(expected) | set(actual)))
            if report.divergences:
                self._diverged.inc(len(report.divergences))
        return report
