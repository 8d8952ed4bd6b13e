"""Workload statistics — the quantities reported in the paper's Tables 3-4.

Given a trace (base or intensified), :func:`compute_stats` produces the same
rows the paper tabulates: per-operation counts, distinct users, distinct
hosts and distinct (active) files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Set

from repro.traces.records import MetadataOp, TraceRecord


@dataclass
class WorkloadStats:
    """Aggregate statistics of one trace."""

    op_counts: Dict[MetadataOp, int] = field(default_factory=dict)
    users: Set[int] = field(default_factory=set)
    hosts: Set[int] = field(default_factory=set)
    files: Set[str] = field(default_factory=set)
    subtraces: Set[int] = field(default_factory=set)
    duration: float = 0.0

    @property
    def total_ops(self) -> int:
        return sum(self.op_counts.values())

    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def num_hosts(self) -> int:
        return len(self.hosts)

    @property
    def num_active_files(self) -> int:
        return len(self.files)

    @property
    def num_subtraces(self) -> int:
        return len(self.subtraces)

    def count(self, op: MetadataOp) -> int:
        return self.op_counts.get(op, 0)

    def op_fraction(self, op: MetadataOp) -> float:
        total = self.total_ops
        return self.count(op) / total if total else 0.0


def compute_stats(records: Iterable[TraceRecord]) -> WorkloadStats:
    """Scan a trace and accumulate :class:`WorkloadStats`."""
    stats = WorkloadStats()
    last_timestamp = 0.0
    for record in records:
        stats.op_counts[record.op] = stats.op_counts.get(record.op, 0) + 1
        stats.users.add(record.uid)
        stats.hosts.add(record.host)
        stats.files.add(record.path)
        if record.new_path:
            stats.files.add(record.new_path)
        stats.subtraces.add(record.subtrace)
        last_timestamp = max(last_timestamp, record.timestamp)
    stats.duration = last_timestamp
    return stats
