"""Change-data-capture on the primary fleet's mutation-apply path.

A :class:`ChangeCapture` subscribes to the cluster's change listener
(every *applied* create/delete/per-home rename, through any entry point
— direct calls or the write-back ``MUTATE_BATCH`` arbitration) and
assigns each home's changes a contiguous per-home sequence number.
Contiguity is the load-bearing property: the standby acks cumulatively
(one floor integer per home) and a floor alone gives exact at-most-once
apply — unlike the gappy write-back version streams of PR 5, no outcome
cache is needed.

The per-home logs are the shipper's retransmit buffer; acked prefixes
are truncated away (:meth:`ChangeCapture.truncate`), so memory is
bounded by replication lag.  ``keep_history=True`` additionally retains
every captured entry for the :class:`~repro.replication.audit.
DivergenceAuditor`'s replay oracle (drills and tests only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.cluster import ChangeEvent, GHBACluster
from repro.metadata.attributes import FileMetadata
from repro.prototype.seqlog import SeqLog


@dataclass(frozen=True)
class CapturedChange:
    """One captured mutation, positioned in its home's ordered stream.

    ``seq`` is contiguous per ``home_id`` (1, 2, 3, ...).  ``record``
    carries the full metadata for creates (``None`` otherwise);
    ``new_path`` the new prefix for renames.  ``vtime`` is the virtual
    capture time — the replication-lag clock's zero point for this
    entry.
    """

    home_id: int
    seq: int
    op: str
    path: str
    new_path: str = ""
    record: Optional[FileMetadata] = None
    vtime: float = 0.0


def entry_to_wire(entry: CapturedChange) -> Dict[str, Any]:
    """Codec-safe dict form of one entry (rides a ``REPL_SHIP``)."""
    return {
        "seq": entry.seq,
        "op": entry.op,
        "path": entry.path,
        "new_path": entry.new_path,
        "record": entry.record,
        "vtime": entry.vtime,
    }


def entry_from_wire(home_id: int, data: Dict[str, Any]) -> CapturedChange:
    """Rebuild one entry from its wire dict."""
    return CapturedChange(
        home_id=home_id,
        seq=int(data["seq"]),
        op=str(data["op"]),
        path=str(data["path"]),
        new_path=str(data.get("new_path", "")),
        record=data.get("record"),
        vtime=float(data.get("vtime", 0.0)),
    )


class ChangeCapture:
    """Per-home ordered change log fed by the cluster's CDC hook."""

    def __init__(self, metrics=None, keep_history: bool = False) -> None:
        #: Un-acked suffix of each home's stream (the retransmit buffer);
        #: its ``last`` is the highest seq ever assigned there.
        self.logs: Dict[int, SeqLog[CapturedChange]] = {}
        self.keep_history = keep_history
        #: Every entry ever captured (only when ``keep_history``) — the
        #: auditor's replay oracle, unaffected by truncation.
        self.history: List[CapturedChange] = []
        self.cluster: Optional[GHBACluster] = None
        #: Virtual clock; the workload driver advances it via
        #: :meth:`advance` so captured entries are stamped.
        self.now = 0.0
        self._captured = None
        if metrics is not None:
            self._captured = metrics.counter(
                "replication_captured_total",
                "Mutations captured into the replication stream, by home.",
                labels=("home",),
            )

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    def attach(self, cluster: GHBACluster) -> None:
        """Subscribe to ``cluster``'s applied-mutation stream."""
        if self.cluster is not None:
            raise ValueError("capture is already attached")
        cluster.add_change_listener(self._on_event)
        self.cluster = cluster

    def detach(self) -> None:
        if self.cluster is not None:
            self.cluster.remove_change_listener(self._on_event)
            self.cluster = None

    def advance(self, now: float) -> None:
        self.now = now

    def _on_event(self, event: ChangeEvent) -> None:
        self.capture(
            event.op,
            event.path,
            home_id=event.home_id,
            record=event.record,
            new_path=event.new_path,
        )

    def capture(
        self,
        op: str,
        path: str,
        home_id: int,
        record: Optional[FileMetadata],
        new_path: str,
    ) -> CapturedChange:
        """Append one change to ``home_id``'s stream; returns the entry."""
        log = self.logs.setdefault(home_id, SeqLog())
        entry = CapturedChange(
            home_id=home_id,
            seq=log.last + 1,
            op=op,
            path=path,
            new_path=new_path,
            record=record,
            vtime=self.now,
        )
        log.entries.append(entry)
        if self.keep_history:
            self.history.append(entry)
        if self._captured is not None:
            self._captured.labels(home_id).inc()
        return entry

    # ------------------------------------------------------------------
    # Shipper interface
    # ------------------------------------------------------------------
    def homes(self) -> List[int]:
        return sorted(self.logs)

    def last_seq(self, home_id: int) -> int:
        log = self.logs.get(home_id)
        return log.last if log is not None else 0

    def pending(self, home_id: int, floor: int) -> List[CapturedChange]:
        """Entries of ``home_id`` above the cumulative-ack ``floor``."""
        log = self.logs.get(home_id)
        return log.after(floor) if log is not None else []

    def truncate(self, home_id: int, floor: int) -> int:
        """Drop acked entries (seq <= floor); returns how many."""
        log = self.logs.get(home_id)
        return log.truncate(floor) if log is not None else 0

    def pending_total(self, floors: Dict[int, int]) -> int:
        return sum(
            self.last_seq(home) - floors.get(home, 0)
            for home in self.homes()
        )

    def oldest_pending_vtime(
        self, home_id: int, floor: int
    ) -> Optional[float]:
        pending = self.pending(home_id, floor)
        return pending[0].vtime if pending else None
