"""Primary-side shipper: drains the change capture to the standby.

One :class:`ReplicationShipper` per primary fleet.  Each
:meth:`~ReplicationShipper.ship` pass sends, per home with pending
entries, one ``REPL_SHIP`` batch and truncates that home's capture log
to the standby's cumulative ack, so the log's base *is* the floor.  Lost
requests surface as :class:`TimeoutError` from the transport's retry
layer and simply leave the floor where it was — the next pass
retransmits from ``floor + 1`` (counted in
``replication_retransmits_total``).  A ``fenced`` reply means a newer
epoch owns the standby (promotion happened): the shipper latches
``self.fenced`` and refuses further ships.

The shipper never blocks replication on the primary's mutation path:
capture is synchronous and cheap, shipping happens on the driver's
cadence (the drill ships every N operations).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core import checkpoint as core_checkpoint
from repro.prototype.messages import Message, MessageKind
from repro.replication.cdc import CapturedChange, ChangeCapture, entry_to_wire

#: Client-style (negative) sender IDs on the wire.
SHIPPER_SENDER = -50
PROMOTER_SENDER = -60


@dataclass
class ShipReport:
    """Outcome of one ship pass (or one fencing probe)."""

    ships: int = 0
    shipped_entries: int = 0
    retransmits: int = 0
    timeouts: int = 0
    fenced: int = 0
    #: Entries newly acknowledged this pass, by home, in seq order.
    acked: Dict[int, List[CapturedChange]] = field(default_factory=dict)

    @property
    def acked_entries(self) -> int:
        return sum(len(entries) for entries in self.acked.values())


class ReplicationShipper:
    """Ships per-home ordered change streams; tracks cumulative acks."""

    def __init__(
        self,
        capture: ChangeCapture,
        transport,
        standby_id: int,
        epoch: int = 1,
        batch_max: int = 64,
        timeout_s: Optional[float] = None,
        metrics=None,
    ) -> None:
        self.capture = capture
        self.transport = transport
        self.standby_id = standby_id
        self.epoch = epoch
        self.batch_max = batch_max
        self.timeout_s = timeout_s
        #: Highest seq ever put on the wire per home (retransmit
        #: accounting: re-shipping below this is a retransmit).
        self.shipped_high: Dict[int, int] = {}
        #: Latched on the first fenced reply: a newer epoch owns the
        #: standby, this primary must stop shipping.
        self.fenced = False
        self._ships = None
        if metrics is not None:
            self._ships = metrics.counter(
                "replication_ships_total",
                "REPL_SHIP batches sent.",
            )
            self._shipped = metrics.counter(
                "replication_shipped_entries_total",
                "Entries put on the wire, by home (retransmits included).",
                labels=("home",),
            )
            self._acked = metrics.counter(
                "replication_acked_entries_total",
                "Entries cumulatively acknowledged by the standby, by home.",
                labels=("home",),
            )
            self._retransmits = metrics.counter(
                "replication_retransmits_total",
                "Entries re-shipped after a lost or unacked batch.",
            )
            self._failures = metrics.counter(
                "replication_ship_failures_total",
                "REPL_SHIP batches that timed out past the retry budget.",
            )
            self._fenced_ships = metrics.counter(
                "replication_fenced_ships_total",
                "Ship attempts rejected by the standby's newer epoch.",
            )
            self._syncs = metrics.counter(
                "replication_syncs_total",
                "Full-state REPL_SYNC bootstraps sent.",
            )

    # ------------------------------------------------------------------
    @property
    def floors(self) -> Dict[int, int]:
        """Standby's cumulative ack per home: entries at or below are
        durable over there, so the capture log is truncated to it."""
        return {home: log.base for home, log in self.capture.logs.items()}

    def ship(self, now: float = 0.0) -> ShipReport:
        """One pass: ship up to ``batch_max`` pending entries per home."""
        report = ShipReport()
        if self.fenced:
            return report
        for home, log in sorted(self.capture.logs.items()):
            entries = log.entries[: self.batch_max]
            if not entries:
                continue
            high = self.shipped_high.get(home, 0)
            retransmits = sum(1 for e in entries if e.seq <= high)
            payload = {
                "home": home,
                "epoch": self.epoch,
                "acked": log.base,
                "entries": [entry_to_wire(e) for e in entries],
            }
            message = Message(
                kind=MessageKind.REPL_SHIP,
                sender=SHIPPER_SENDER,
                payload=payload,
                arrival_vtime=now,
            )
            if self._ships is not None:
                self._ships.inc()
                self._shipped.labels(home).inc(len(entries))
                if retransmits:
                    self._retransmits.inc(retransmits)
            report.ships += 1
            report.shipped_entries += len(entries)
            report.retransmits += retransmits
            self.shipped_high[home] = max(high, entries[-1].seq)
            try:
                reply = self.transport.request(
                    self.standby_id, message, timeout_s=self.timeout_s
                )
            except TimeoutError:
                report.timeouts += 1
                if self._ships is not None:
                    self._failures.inc()
                continue
            answer = reply.payload
            if answer.get("fenced"):
                self.fenced = True
                report.fenced += 1
                if self._ships is not None:
                    self._fenced_ships.inc()
                break
            # The batch starts at the log's base: the ack drops a prefix of it.
            dropped = log.truncate(int(answer.get("acked", 0)))
            if dropped:
                report.acked[home] = entries[:dropped]
                if self._ships is not None:
                    self._acked.labels(home).inc(dropped)
        return report

    def sync(self, now: float = 0.0) -> Dict[str, Any]:
        """Bootstrap the standby with a full checkpoint of the primary.

        Everything captured so far is *included* in the checkpoint, so
        the floors jump to the current capture sequences and the logs
        truncate — shipping resumes at ``floor + 1``.  Raises
        :class:`TimeoutError` if the standby never answers (a standby
        that missed its bootstrap cannot be shipped to).
        """
        cluster = self.capture.cluster
        if cluster is None:
            raise ValueError("capture is not attached to a cluster")
        document = core_checkpoint.snapshot(cluster)
        base_seqs = {
            str(home): self.capture.last_seq(home)
            for home in self.capture.homes()
        }
        payload = {
            "epoch": self.epoch,
            "checkpoint": json.dumps(document, separators=(",", ":")),
            "base_seqs": base_seqs,
        }
        message = Message(
            kind=MessageKind.REPL_SYNC,
            sender=SHIPPER_SENDER,
            payload=payload,
            arrival_vtime=now,
        )
        reply = self.transport.request(
            self.standby_id, message, timeout_s=self.timeout_s
        )
        answer = reply.payload
        if answer.get("fenced"):
            self.fenced = True
            if self._ships is not None:
                self._fenced_ships.inc()
            return answer
        for log in self.capture.logs.values():
            log.truncate(log.last)
        if self._ships is not None:
            self._syncs.inc()
        return answer

    def status(self) -> Dict[str, Any]:
        """Poll the standby's floors/epoch (``REPL_ACK``)."""
        message = Message(
            kind=MessageKind.REPL_ACK, sender=SHIPPER_SENDER, payload={}
        )
        reply = self.transport.request(
            self.standby_id, message, timeout_s=self.timeout_s
        )
        return reply.payload


def promote_standby(
    transport,
    standby_id: int,
    timeout_s: Optional[float] = None,
    sender: int = PROMOTER_SENDER,
    now: float = 0.0,
) -> Dict[str, Any]:
    """Promote the standby to primary (the DR coordinator's move, not
    the dead primary's).  Returns the standby's reply: new epoch and
    final floors."""
    message = Message(
        kind=MessageKind.REPL_PROMOTE,
        sender=sender,
        payload={},
        arrival_vtime=now,
    )
    reply = transport.request(standby_id, message, timeout_s=timeout_s)
    return reply.payload


def fence_probe(
    transport,
    standby_id: int,
    epoch: int,
    timeout_s: Optional[float] = None,
    now: float = 0.0,
) -> Dict[str, Any]:
    """Send an empty ``REPL_SHIP`` carrying ``epoch`` and return the
    reply — the drill's proof that a late ship from the old primary's
    epoch is rejected (``fenced=True``) after promotion."""
    message = Message(
        kind=MessageKind.REPL_SHIP,
        sender=SHIPPER_SENDER,
        payload={"home": 0, "epoch": epoch, "acked": 0, "entries": []},
        arrival_vtime=now,
    )
    reply = transport.request(standby_id, message, timeout_s=timeout_s)
    return reply.payload
