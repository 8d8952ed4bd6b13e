"""Write-back mutation buffering for the gateway tier.

The PR 3 gateway made the *read* path cheap (leases, coalescing, batched
verification) but left every create/delete paying a synchronous unicast
round trip to its home MDS.  This module adds the write side of the same
idea: mutations enqueue into a per-home :class:`MutationBuffer` and the
client's flush engine drains each home's bucket as **one** batched
``MUTATE_BATCH`` round trip (``GHBACluster.apply_mutation_batch``), on
three triggers — bucket size, oldest-entry age, and an explicit
:meth:`~repro.gateway.client.MetadataClient.flush_barrier`.

Semantics (DESIGN.md §11):

- A :class:`PendingMutation` is a *final-state* assertion — "``path``
  exists with this record at this home" (create) or "``path`` is absent"
  (delete) — guarded by ``base_version``, the backend path version the
  client last observed.  Same-path re-mutations **absorb** in place: the
  newest intent wins, the earliest base (and enqueue time) survives, and
  only one backend apply is ever attempted per path per flush.
- Versions are a gateway-global monotonically increasing sequence; with
  the gateway's origin ID they form the at-most-once dedup key the home
  MDS tracks, so a retried batch can never double-apply.
- Reads observe the buffer first (read-your-writes): a pending create
  answers with its record, a pending delete answers negative, and
  neither consults the cache or the fleet.
- Loss is **explicit**: a flush that cannot reach its home after the
  retry budget re-parks the batch (a later trigger retries it); only the
  barrier converts still-unreachable mutations into reported losses —
  counted, listed in the :class:`FlushReport`, and their leases dropped.
  Nothing is ever silently absorbed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.cluster import MutationOutcome, PathMutation
from repro.metadata.attributes import FileMetadata
from repro.metadata.namespace import is_under
from repro.prototype.seqlog import SeqReceiver

#: Ack listener signature: (mutation, outcome) at flush-ack time, or
#: (mutation, None) when the mutation is declared lost at a barrier.
AckListener = Callable[["PendingMutation", Optional[MutationOutcome]], None]


@dataclass
class PendingMutation:
    """One buffered mutation awaiting flush.

    ``version`` is the gateway-global sequence number (the dedup key
    half); ``base_version`` is the backend path version observed when the
    *first* mutation of this path entered the buffer — absorption keeps
    the original base, because the intermediate intents never reached the
    backend.  ``absorbed`` counts how many earlier same-path intents this
    record replaced.
    """

    version: int
    op: str  # "create" | "delete"
    path: str
    home_id: int
    record: Optional[FileMetadata] = None
    base_version: Optional[int] = None
    enqueued_at: float = 0.0
    absorbed: int = 0
    retries: int = 0
    #: Optional (trace_id, parent_span_id, origin) causal context, set by
    #: the gateway when tracing is enabled; None on the hot path.
    trace: Optional[Tuple[int, int, int]] = None

    def as_path_mutation(self) -> PathMutation:
        return PathMutation(
            version=self.version,
            op=self.op,
            path=self.path,
            record=self.record,
            base_version=self.base_version,
            trace=self.trace,
        )


@dataclass
class FlushReport:
    """Aggregate outcome of one flush pass (or barrier).

    ``deferred`` lists mutations whose home stayed unreachable within
    the retry budget and were re-parked for a later trigger — only a
    barrier turns those into ``lost``.
    """

    batches: int = 0
    attempts: int = 0
    acked: List[PendingMutation] = field(default_factory=list)
    conflicts: List[PendingMutation] = field(default_factory=list)
    deferred: List[PendingMutation] = field(default_factory=list)
    lost: List[PendingMutation] = field(default_factory=list)

    def merge(self, other: "FlushReport") -> None:
        self.batches += other.batches
        self.attempts += other.attempts
        self.acked.extend(other.acked)
        self.conflicts.extend(other.conflicts)
        self.deferred.extend(other.deferred)
        self.lost.extend(other.lost)


class MutationBuffer:
    """Per-home buckets of pending mutations with a global path overlay.

    The buffer is pure data structure — enqueue, absorb, drain, probe —
    with no policy; trigger settings, backoff and backend I/O live in the
    client's flush engine so the buffer stays trivially testable.  Each
    bucket's earliest ``enqueued_at`` is kept as the bucket changes, so
    :meth:`due` answers which buckets reach the triggers without walking
    one.
    """

    def __init__(self) -> None:
        self._next_version = 0
        #: Global overlay index: path → its single pending mutation.
        self._by_path: Dict[str, PendingMutation] = {}
        #: Flush buckets: home → insertion-ordered path → mutation.
        self._by_home: Dict[int, "OrderedDict[str, PendingMutation]"] = {}
        #: home → the smallest ``enqueued_at`` in its bucket.
        self._oldest: Dict[int, float] = {}
        self.enqueued = 0
        self.absorbed = 0
        #: Cumulative acks: every version at or below ``acks.floor`` is
        #: settled (acked, conflicted, lost, or absorbed before flushing)
        #: and will never be retried — the home MDS may prune its replay
        #: cache up to there.  Versions settle out of order.
        self.acks: SeqReceiver[None] = SeqReceiver()

    # ------------------------------------------------------------------
    # Enqueue / absorb
    # ------------------------------------------------------------------
    def enqueue(
        self,
        op: str,
        path: str,
        home_id: int,
        now: float,
        record: Optional[FileMetadata] = None,
        base_version: Optional[int] = None,
    ) -> PendingMutation:
        """Buffer one mutation, absorbing any pending same-path intent.

        The replacement keeps the *earliest* base version and enqueue
        time (the backend never saw the intermediate states, so the race
        window starts at the first buffered intent) but takes a fresh
        sequence version — the home dedups by version (the per-origin ack
        floor plus the outcomes cached above it), so a new intent needs a
        version no earlier batch has used.
        """
        if op not in ("create", "delete"):
            raise ValueError(f"unknown buffered op {op!r}")
        self._next_version += 1
        previous = self._by_path.pop(path, None)
        absorbed = 0
        if previous is not None:
            # The replacement re-enters the same bucket with the same
            # enqueue time, so the bucket (even when this empties it for
            # a moment) and its kept oldest time stay as they are.
            del self._by_home[previous.home_id][path]
            # The absorbed intent never reaches the backend: settled now.
            self.settle(previous.version)
            # A delete of a pending create stays routed at the create's
            # home: if the create never flushed, the delete no-ops there.
            home_id = previous.home_id
            base_version = previous.base_version
            now = previous.enqueued_at
            absorbed = previous.absorbed + 1
            self.absorbed += 1
        mutation = PendingMutation(
            version=self._next_version,
            op=op,
            path=path,
            home_id=home_id,
            record=record,
            base_version=base_version,
            enqueued_at=now,
            absorbed=absorbed,
        )
        self._park(mutation)
        self.enqueued += 1
        return mutation

    def _park(self, mutation: PendingMutation) -> None:
        """Index ``mutation`` by path and into its home's bucket."""
        home_id = mutation.home_id
        self._by_path[mutation.path] = mutation
        self._by_home.setdefault(home_id, OrderedDict())[mutation.path] = mutation
        oldest = self._oldest.get(home_id)
        if oldest is None or mutation.enqueued_at < oldest:
            self._oldest[home_id] = mutation.enqueued_at

    def requeue(self, mutations: Iterable[PendingMutation]) -> None:
        """Re-park drained mutations after a failed flush (at the back of
        their bucket: nothing reads bucket order, drains sort by version),
        unless a newer intent superseded them while the flush was in
        flight."""
        for mutation in mutations:
            if mutation.path in self._by_path:
                continue  # superseded: the newer intent carries the state
            self._park(mutation)

    def settle(self, version: int) -> None:
        """Mark ``version`` as never-to-be-retried; advance the floor."""
        self.acks.offer(version, None)

    # ------------------------------------------------------------------
    # Overlay probe (read-your-writes)
    # ------------------------------------------------------------------
    def get(self, path: str) -> Optional[PendingMutation]:
        return self._by_path.get(path)

    def paths_under(self, prefix: str) -> List[str]:
        """Pending paths at or under ``prefix`` (boundary-aware: ``/a/b``
        matches ``/a/b`` and ``/a/b/c`` but never ``/a/bc``)."""
        return [path for path in self._by_path if is_under(path, prefix)]

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def homes(self) -> List[int]:
        return sorted(self._by_home)

    def due(self, now: float, age_s: float, max_pending: int) -> List[int]:
        """The homes, in order, whose bucket holds ``max_pending``
        mutations or whose earliest is ``age_s`` old at ``now``: one kept
        time and one ``len`` per home, never a walk of a bucket."""
        by_home = self._by_home
        return sorted(
            home_id
            for home_id, oldest in self._oldest.items()
            if len(by_home[home_id]) >= max_pending or now - oldest >= age_s
        )

    def drain_home(self, home_id: int) -> List[PendingMutation]:
        """Remove and return one home's bucket, in version order."""
        bucket = self._by_home.pop(home_id, None)
        self._oldest.pop(home_id, None)
        if not bucket:
            return []
        drained = sorted(bucket.values(), key=lambda m: m.version)
        for mutation in drained:
            del self._by_path[mutation.path]
        return drained

    def drain_paths(
        self, paths: Iterable[str]
    ) -> Dict[int, List[PendingMutation]]:
        """Remove exactly ``paths`` from the buffer, grouped per home in
        version order — the rename partial-barrier's targeted drain."""
        grouped: Dict[int, List[PendingMutation]] = {}
        for path in paths:
            mutation = self._by_path.pop(path, None)
            if mutation is None:
                continue
            bucket = self._by_home[mutation.home_id]
            del bucket[path]
            if not bucket:
                del self._by_home[mutation.home_id]
            grouped.setdefault(mutation.home_id, []).append(mutation)
        for home_id, mutations in grouped.items():
            mutations.sort(key=lambda m: m.version)
            bucket = self._by_home.get(home_id)
            if bucket:
                self._oldest[home_id] = min(
                    m.enqueued_at for m in bucket.values()
                )
            else:
                del self._oldest[home_id]
        return grouped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_path)

    def __repr__(self) -> str:
        return (
            f"MutationBuffer(pending={len(self._by_path)}, "
            f"homes={len(self._by_home)}, enqueued={self.enqueued}, "
            f"absorbed={self.absorbed})"
        )
