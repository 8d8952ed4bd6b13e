"""The standby fleet's replication endpoint.

A :class:`StandbyEndpoint` owns a full :class:`GHBACluster` replica and
the per-home cumulative-ack floors.  It bootstraps from a ``REPL_SYNC``
(a complete :mod:`repro.core.checkpoint` document), then applies
``REPL_SHIP`` batches exactly once: each batch runs through a
:class:`~repro.prototype.seqlog.SeqReceiver` at the home's floor, so a
duplicate is skipped and a reorder stalls the batch until the
retransmit.  The floors are durable with the
replica (:meth:`save` / :meth:`load`, atomic via
:func:`repro.core.checkpoint.atomic_write_text`) and persisted *before*
the ack is returned, so a crash between apply and ack replays as a
duplicate, never a double-apply.

Promotion (``REPL_PROMOTE``) bumps the epoch and marks the endpoint
promoted; from then on every ship from the old primary's epoch is
**fenced** — rejected without touching state — so a straggler shipper
cannot scribble on the new authority.

:class:`StandbyNode` serves an endpoint from the mailbox loop
:class:`~repro.prototype.node.MDSNode` runs too
(:class:`~repro.prototype.node.MailboxNode`), so it serves either
transport unmodified.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional

from repro.core import checkpoint as core_checkpoint
from repro.core.checkpoint import CheckpointError, atomic_write_text
from repro.core.cluster import GHBACluster
from repro.prototype.messages import Message, MessageKind
from repro.prototype.node import MailboxNode
from repro.prototype.seqlog import SeqReceiver
from repro.replication.cdc import entry_from_wire

#: Bumped on any incompatible change to the standby checkpoint layout.
STANDBY_FORMAT_VERSION = 1


class ReplicationError(RuntimeError):
    """A replication-protocol invariant was violated (e.g. a create
    entry without a record, or a ship before any sync)."""


class StandbyEndpoint:
    """Replication state machine of one standby fleet (no threading)."""

    def __init__(
        self,
        node_id: int = 0,
        cluster: Optional[GHBACluster] = None,
        metrics=None,
        checkpoint_path=None,
    ) -> None:
        self.node_id = node_id
        self.cluster = cluster
        self.metrics = metrics
        self.checkpoint_path = checkpoint_path
        #: Per-home cumulative-ack floor: every seq at or below it has
        #: been applied (or was part of the sync base) — the standby
        #: will never apply it again.
        self.floors: Dict[int, int] = {}
        #: Highest primary epoch ever seen; ships below it are fenced.
        self.epoch = 0
        self.promoted = False
        self.applied_total = 0
        self.duplicate_total = 0
        self.gap_total = 0
        self.fenced_total = 0
        self._applied = None
        if metrics is not None:
            self._applied = metrics.counter(
                "replication_applied_total",
                "Replicated mutations applied on the standby, by home.",
                labels=("home",),
            )
            self._dups = metrics.counter(
                "replication_duplicates_total",
                "Shipped entries at or below the floor (retry replays).",
            )
            self._gaps = metrics.counter(
                "replication_gap_stalls_total",
                "Ship batches stalled on a sequence gap (reorder).",
            )
            self._fenced = metrics.counter(
                "replication_fenced_total",
                "Ships/syncs rejected by epoch fencing.",
            )
            self._syncs = metrics.counter(
                "replication_sync_installs_total",
                "Full-state bootstraps installed from REPL_SYNC.",
            )
            self._promotions = metrics.counter(
                "replication_promotions_total",
                "REPL_PROMOTE operations accepted.",
            )

    # ------------------------------------------------------------------
    # Protocol handlers (pure: payload dict in, reply payload dict out)
    # ------------------------------------------------------------------
    def apply_sync(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Install a full-state bootstrap from the primary.

        ``base_seqs`` are the capture sequences already *included* in
        the checkpoint — the floors start there, so the shipper's next
        batch continues seamlessly at ``floor + 1``.
        """
        epoch = int(payload["epoch"])
        if self.promoted or epoch < self.epoch:
            self._count_fenced()
            return {"ok": False, "fenced": True, "epoch": self.epoch}
        document = json.loads(payload["checkpoint"])
        self.cluster = core_checkpoint.restore(document)
        self.floors = {
            int(home): int(seq)
            for home, seq in dict(payload.get("base_seqs", {})).items()
        }
        self.epoch = epoch
        if self._applied is not None:
            self._syncs.inc()
        self._persist()
        return {"ok": True, "fenced": False, "epoch": self.epoch}

    def apply_ship(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one per-home batch; returns the cumulative ack.

        Fencing is checked before anything else: a ship carrying an
        epoch older than ours (or arriving after promotion) is rejected
        untouched.  Within an accepted batch, the contiguous prefix
        starting at ``floor + 1`` is applied; entries at or below the
        floor are counted as duplicates; the first entry beyond
        ``floor + 1`` is a gap and stalls the rest of the batch (the
        shipper retransmits from the ack).
        """
        epoch = int(payload["epoch"])
        home = int(payload["home"])
        floor = self.floors.get(home, 0)
        if self.promoted or epoch < self.epoch:
            self.fenced_total += 1
            self._count_fenced()
            return {"acked": floor, "fenced": True, "epoch": self.epoch}
        if epoch > self.epoch:
            # First ship of a newer primary epoch: adopt it.
            self.epoch = epoch
        if self.cluster is None:
            # Shipped before any sync: nothing to apply onto.  Ack
            # nothing; the shipper must sync first.
            return {
                "acked": floor,
                "fenced": False,
                "unsynced": True,
                "epoch": self.epoch,
            }
        # The receiver lives for this one batch: an entry held above a gap
        # is dropped with it, so the batch stalls (nothing is buffered).
        stream = SeqReceiver(floor)
        applied = 0
        duplicates = 0
        gap = False
        try:
            for raw in payload.get("entries", ()):
                entry = entry_from_wire(home, raw)
                due = stream.offer(entry.seq, entry)
                if due is None:
                    duplicates += 1
                    continue
                if not due:
                    gap = True
                    break
                for ready in due:
                    self._apply(ready)
                    applied += 1
        finally:
            # Applies are contiguous, so even an entry that raises halfway
            # leaves ``floor + applied`` as the exact applied prefix: a
            # retry replays that prefix as duplicates.
            floor += applied
            self.floors[home] = floor
            self.applied_total += applied
            if applied and self._applied is not None:
                self._applied.labels(home).inc(applied)
        self.duplicate_total += duplicates
        if self._applied is not None:
            if duplicates:
                self._dups.inc(duplicates)
            if gap:
                self._gaps.inc()
        if gap:
            self.gap_total += 1
        if applied:
            # Durable before acked: a crash after this point replays
            # the retry as duplicates; a crash before it loses the
            # apply *and* the floor together.
            self._persist()
        return {
            "acked": floor,
            "fenced": False,
            "gap": gap,
            "applied": applied,
            "duplicates": duplicates,
            "epoch": self.epoch,
        }

    def apply_promote(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Promote this standby: new epoch, old primary fenced out."""
        self.promoted = True
        self.epoch += 1
        if self._applied is not None:
            self._promotions.inc()
        self._persist()
        return {
            "epoch": self.epoch,
            "promoted": True,
            "floors": {str(home): seq for home, seq in sorted(self.floors.items())},
            "applied_total": self.applied_total,
        }

    # ------------------------------------------------------------------
    # Apply
    # ------------------------------------------------------------------
    def _apply(self, entry) -> None:
        cluster = self.cluster
        if entry.op == "create":
            if entry.record is None:
                raise ReplicationError(
                    f"create entry {entry.home_id}/{entry.seq} has no record"
                )
            cluster.insert_file(entry.record, home_id=entry.home_id)
        elif entry.op == "delete":
            cluster.delete_file(entry.path)
        elif entry.op == "rename":
            cluster.rename_subtree_at(
                entry.home_id, entry.path, entry.new_path
            )
        else:
            raise ReplicationError(f"unknown replicated op {entry.op!r}")

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint_doc(self) -> Dict[str, Any]:
        return {
            "standby_format": STANDBY_FORMAT_VERSION,
            "epoch": self.epoch,
            "promoted": self.promoted,
            "floors": {
                str(home): seq for home, seq in sorted(self.floors.items())
            },
            "applied_total": self.applied_total,
            "cluster": (
                core_checkpoint.snapshot(self.cluster)
                if self.cluster is not None
                else None
            ),
        }

    def save(self, path) -> int:
        payload = json.dumps(self.checkpoint_doc(), separators=(",", ":"))
        atomic_write_text(path, payload)
        return len(payload)

    def _persist(self) -> None:
        if self.checkpoint_path is not None:
            self.save(self.checkpoint_path)

    @classmethod
    def restore_doc(
        cls,
        document: Dict[str, Any],
        node_id: int = 0,
        metrics=None,
        checkpoint_path=None,
    ) -> "StandbyEndpoint":
        version = document.get("standby_format")
        if version != STANDBY_FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported standby checkpoint format {version!r} "
                f"(expected {STANDBY_FORMAT_VERSION})"
            )
        cluster = None
        if document.get("cluster") is not None:
            cluster = core_checkpoint.restore(document["cluster"])
        endpoint = cls(
            node_id=node_id,
            cluster=cluster,
            metrics=metrics,
            checkpoint_path=checkpoint_path,
        )
        endpoint.epoch = int(document["epoch"])
        endpoint.promoted = bool(document["promoted"])
        endpoint.floors = {
            int(home): int(seq)
            for home, seq in document.get("floors", {}).items()
        }
        endpoint.applied_total = int(document.get("applied_total", 0))
        return endpoint

    @classmethod
    def load(
        cls,
        path,
        node_id: int = 0,
        metrics=None,
        checkpoint_path=None,
    ) -> "StandbyEndpoint":
        text = Path(path).read_text(encoding="utf-8")
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"corrupt standby checkpoint {path!s}: {exc}"
            ) from exc
        return cls.restore_doc(
            document,
            node_id=node_id,
            metrics=metrics,
            checkpoint_path=checkpoint_path,
        )

    # ------------------------------------------------------------------
    def _count_fenced(self) -> None:
        if self._applied is not None:
            self._fenced.inc()


class StandbyNode(MailboxNode):
    """A standby endpoint served from a transport mailbox.

    Answers ``REPL_*`` (and PING) on the shared mailbox loop.  Works
    identically over :class:`InProcessTransport` and
    :class:`TcpTransport` — the reply rides ``message.reply_to``.
    """

    def __init__(
        self,
        node_id: int,
        transport,
        metrics=None,
        checkpoint_path=None,
    ) -> None:
        super().__init__(f"standby-{node_id}", node_id, transport)
        #: A restarted standby swaps in ``StandbyEndpoint.load(path)``
        #: before :meth:`start`.
        self.endpoint = StandbyEndpoint(
            node_id=node_id, metrics=metrics, checkpoint_path=checkpoint_path
        )

    def _handle(self, message: Message) -> None:
        endpoint = self.endpoint
        try:
            if message.kind is MessageKind.REPL_SHIP:
                result = endpoint.apply_ship(message.payload)
            elif message.kind is MessageKind.REPL_SYNC:
                result = endpoint.apply_sync(message.payload)
            elif message.kind is MessageKind.REPL_PROMOTE:
                result = endpoint.apply_promote(message.payload)
            elif message.kind is MessageKind.PING:
                result = {"alive": True}
            else:
                result = {"error": f"unknown kind {message.kind.value}"}
        except Exception as exc:  # a bad ship must not kill the standby
            result = {"error": f"{type(exc).__name__}: {exc}"}
        if message.reply_to is not None:
            message.reply_to.put(message.reply(**result))
