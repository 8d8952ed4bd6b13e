"""Distributed gateway cohort: invalidation multicast between gateways.

A single :class:`~repro.gateway.client.MetadataClient` keeps its leases
coherent through the cluster's mutation hook — an oracle a *distributed*
deployment does not have.  When N gateway processes front the same MDS
fleet, a mutation issued through one gateway must reach the other N-1 as
an explicit message, over a network that drops, delays, duplicates and
partitions.  This module models exactly that tier:

- Each :class:`CohortMember` owns a hook-less ``MetadataClient`` and a
  mailbox on a shared :class:`~repro.prototype.transport.InProcessTransport`
  whose fault layer (:mod:`repro.faults`) applies to every protocol
  message, so invalidations are as lossy as the plan says.
- Every mutation publishes a versioned :class:`InvalidationRecord`
  (exact path or subtree-rename prefixes, plus the mutation's virtual
  time as the *lease epoch*) under a per-gateway sequence number.
- Peers apply records in order; a sequence gap (lost or reordered
  delivery) buffers the record and triggers **anti-entropy**: a
  ``COHORT_SYNC`` request for the missing log suffix.
- Periodic ``COHORT_HEARTBEAT`` messages carry the publisher's latest
  sequence number (so gaps are detected even when the lost record was
  the *last* mutation) and cumulative acks of every peer's log.
- **Graceful degradation**: a peer silent (or with an unhealed gap) for
  longer than ``suspect_after_s`` is *suspected*; while any peer is
  suspected the member clamps every lease TTL to ``ttl_clamp_s``, so a
  partition bounds staleness instead of extending it.

The whole protocol is one-way messages drained by an explicit
:meth:`CohortMember.tick`, which keeps cohort runs single-threaded and
bit-for-bit deterministic — the property the staleness harness in
``tests/integration/test_cohort_staleness.py`` is built on.

Staleness contract: a cache-served read may trail an invalidating
mutation by at most :attr:`CohortConfig.staleness_bound_s` =
``max(2·heartbeat, heartbeat + suspect_after + ttl_clamp) +``
:data:`SCHEDULING_SLACK_S`:

- delivered invalidations apply within one heartbeat of tick slack;
- a gap heals within a heartbeat (detection) plus a sync round trip;
- when nothing arrives at all, suspicion fires after ``suspect_after_s``
  and the clamp kills every surviving lease within ``ttl_clamp_s``.
"""

from __future__ import annotations

import heapq
import queue
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.cluster import MutationEvent, MutationOutcome
from repro.faults.injector import FaultInjector, NULL_INJECTOR
from repro.gateway.backend import MetadataBackend
from repro.gateway.client import (
    GatewayConfig,
    GatewayResponse,
    MetadataClient,
    Outcome,
)
from repro.gateway.writeback import FlushReport, PendingMutation
from repro.obs.flight import NULL_RECORDER, FlightRecorderHub
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.prototype.messages import Message, MessageKind
from repro.prototype.seqlog import SeqLog, SeqReceiver
from repro.prototype.transport import InProcessTransport

#: Minimum spacing between anti-entropy requests to one origin (virtual
#: seconds), so a burst of out-of-order records does not stampede the
#: publisher.
RESYNC_INTERVAL_S = 0.05
#: Covers tick granularity plus injected message delays when deriving
#: the staleness bound (virtual seconds).
SCHEDULING_SLACK_S = 0.10


@dataclass(frozen=True)
class InvalidationRecord:
    """One published mutation, as its peers will see it.

    ``origin``/``seq`` form the per-gateway version: ``seq`` is contiguous
    per origin, which is what makes loss *detectable*.  ``epoch`` is the
    mutation's virtual time — any lease installed before it is suspect.
    For renames ``path``/``new_path`` are subtree prefixes.  ``trace``
    carries the mutation's causal context across the multicast (None
    whenever tracing is disabled) so peer-side applies join the tree.
    """

    origin: int
    seq: int
    op: str  # "create" | "delete" | "rename"
    path: str
    new_path: str = ""
    epoch: float = 0.0
    trace: Optional[Tuple[int, int, int]] = None

    def as_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "origin": self.origin,
            "seq": self.seq,
            "op": self.op,
            "path": self.path,
            "new_path": self.new_path,
            "epoch": self.epoch,
        }
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "InvalidationRecord":
        trace = payload.get("trace")
        return cls(
            origin=int(payload["origin"]),  # type: ignore[arg-type]
            seq=int(payload["seq"]),  # type: ignore[arg-type]
            op=str(payload["op"]),
            path=str(payload["path"]),
            new_path=str(payload.get("new_path", "")),
            epoch=float(payload.get("epoch", 0.0)),  # type: ignore[arg-type]
            trace=None if trace is None else tuple(trace),  # type: ignore[arg-type]
        )

    def to_event(self) -> MutationEvent:
        return MutationEvent(op=self.op, path=self.path, new_path=self.new_path)


@dataclass(frozen=True)
class CohortConfig:
    """Tunables of the cohort protocol (virtual seconds throughout).

    The defaults are sized for the synthetic traces (a few virtual
    seconds at 1000 ops/s); scale them together when the workload's
    timescale changes.
    """

    heartbeat_interval_s: float = 0.05
    suspect_after_s: float = 0.15
    ttl_clamp_s: float = 0.10
    gateway: GatewayConfig = field(default_factory=GatewayConfig)

    def __post_init__(self) -> None:
        for name in (
            "heartbeat_interval_s",
            "suspect_after_s",
            "ttl_clamp_s",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.heartbeat_interval_s > self.suspect_after_s:
            raise ValueError(
                "heartbeat_interval_s must not exceed suspect_after_s "
                "(a healthy peer would be suspected between heartbeats)"
            )

    @property
    def staleness_bound_s(self) -> float:
        """The window no cache-served read may trail its mutation by.

        Healthy path: a lost record is noticed at the next heartbeat
        (which carries the publisher's latest seq) and healed by one
        sync round trip — ``2·heartbeat``.  Degraded path: one heartbeat
        to notice the gap (or none, when the peer is silent), then
        ``suspect_after`` of grace before suspicion engages the clamp,
        after which no lease survives longer than ``ttl_clamp``.
        """
        propagation = 2.0 * self.heartbeat_interval_s
        degraded = (
            self.heartbeat_interval_s + self.suspect_after_s + self.ttl_clamp_s
        )
        return max(propagation, degraded) + SCHEDULING_SLACK_S


class CohortMember:
    """One gateway in the cohort: a hook-less client plus protocol state.

    Not constructed directly — :class:`GatewayCohort` builds the member
    set so they share one transport, fault layer and metrics registry.
    """

    def __init__(
        self,
        member_id: int,
        peers: Sequence[int],
        cluster: MetadataBackend,
        transport: InProcessTransport,
        config: CohortConfig,
        metrics: MetricsRegistry,
        tracer: Tracer,
        counters: Dict[str, object],
        flight: Optional[FlightRecorderHub] = None,
    ) -> None:
        self.member_id = member_id
        self.peers: Tuple[int, ...] = tuple(sorted(peers))
        self.config = config
        self.transport = transport
        self.tracer = tracer
        self._flight = (
            flight.recorder(f"cohort-{member_id}")
            if flight is not None
            else NULL_RECORDER
        )
        self.mailbox = transport.register(member_id)
        gateway_cfg = config.gateway
        if gateway_cfg.writeback:
            # Each member is its own at-most-once origin, with its own
            # placement RNG stream.
            gateway_cfg = replace(
                gateway_cfg,
                writeback_origin=member_id,
                writeback_seed=gateway_cfg.writeback_seed + member_id,
            )
        self.client = MetadataClient(
            cluster,
            gateway_cfg,
            tracer=tracer,
            metrics=metrics,
            register_mutation_hook=False,
            flight=flight,
        )
        if gateway_cfg.writeback:
            # Invalidation records for buffered mutations are minted at
            # flush-ack, never at enqueue: until the home MDS applies a
            # mutation, there is nothing for a peer to invalidate.
            self.client.add_ack_listener(self._on_flush_ack)
        self._clock = 0.0
        self._c = counters
        self._label = str(member_id)
        # Publishing side: the log keeps what some peer has not acked yet.
        self.log: SeqLog[InvalidationRecord] = SeqLog()
        self.acked_seq: Dict[int, int] = {p: 0 for p in self.peers}
        self._last_heartbeat_sent = float("-inf")
        # Receiving side: one stream per peer.
        self.streams: Dict[int, SeqReceiver[InvalidationRecord]] = {
            p: SeqReceiver() for p in self.peers
        }
        self.last_heard: Dict[int, float] = {p: 0.0 for p in self.peers}
        self.gap_since: Dict[int, Optional[float]] = {p: None for p in self.peers}
        self._last_sync_sent: Dict[int, float] = {p: float("-inf") for p in self.peers}
        self.suspected: Set[int] = set()
        self.clamped = False
        # Delay faults push a message's virtual arrival past the current
        # tick; it waits here (ordered by arrival, then receipt order).
        self._deferred: List[Tuple[float, int, Message]] = []
        self._deferred_seq = 0

    # ------------------------------------------------------------------
    # Client pass-through (read path)
    # ------------------------------------------------------------------
    def lookup(self, path: str, now: float) -> GatewayResponse:
        self._clock = now
        return self.client.lookup(path, now)

    # ------------------------------------------------------------------
    # Mutations (write path + publish)
    # ------------------------------------------------------------------
    def create(
        self, path: str, now: float, home_id: Optional[int] = None
    ) -> GatewayResponse:
        self._clock = now
        response = self.client.create(path, now, home_id=home_id)
        if response.outcome is not Outcome.BUFFERED:
            self._publish("create", path, "", now)
        return response

    def delete(self, path: str, now: float) -> GatewayResponse:
        self._clock = now
        response = self.client.delete(path, now)
        if response.outcome is not Outcome.BUFFERED:
            self._publish("delete", path, "", now)
        return response

    def flush_barrier(self, now: float) -> FlushReport:
        """Flush this member's write-back buffer (no-op when disabled)."""
        self._clock = now
        return self.client.flush_barrier(now)

    def _on_flush_ack(
        self, mutation: PendingMutation, outcome: Optional[MutationOutcome]
    ) -> None:
        """Mint the invalidation record once the home MDS applied it.

        Lost mutations (``outcome is None``), version-race losers and
        applied no-ops (a delete of an absent path) changed nothing on
        the fleet, so there is nothing to invalidate — the race *winner*
        was published by whichever member issued it.
        """
        if outcome is None or not outcome.applied or not outcome.changed:
            return
        self._publish(
            mutation.op,
            mutation.path,
            "",
            self._clock,
            parent=mutation.trace,
        )

    def rename(self, old_prefix: str, new_prefix: str, now: float) -> int:
        self._clock = now
        renamed = self.client.rename(old_prefix, new_prefix, now)
        # Without the cluster hook the *issuing* client's own subtree
        # leases survive the rename; apply the event locally before
        # telling the peers.
        self.client.apply_mutation(
            MutationEvent(op="rename", path=old_prefix, new_path=new_prefix)
        )
        self._publish("rename", old_prefix, new_prefix, now)
        return renamed

    def _publish(
        self,
        op: str,
        path: str,
        new_path: str,
        now: float,
        parent: Optional[Tuple[int, int, int]] = None,
    ) -> None:
        # The mint span is opened *before* the record so its context can
        # travel on the record across the multicast; ``parent`` is the
        # flush span of a write-back ack (None for write-through roots).
        span = None
        trace_ctx: Optional[Tuple[int, int, int]] = None
        if self.tracer.enabled:
            span = self.tracer.start_span(
                path or new_path,
                self.member_id,
                trace_id=None if parent is None else parent[0],
                parent_id=None if parent is None else parent[1],
                component="cohort",
                kind="inval_mint",
            )
            trace_ctx = span.context(self.member_id)
        record = InvalidationRecord(
            origin=self.member_id,
            seq=self.log.last + 1,
            op=op,
            path=path,
            new_path=new_path,
            epoch=now,
            trace=trace_ctx,
        )
        self.log.entries.append(record)
        if not self.peers:
            if span is not None:
                span.event("cohort_publish", seq=record.seq, op=op, peers=0)
                span.finish("COHORT-PUBLISH", self.member_id, 0.0, 0)
            return
        self._c["published"].labels(self._label).inc()
        if self._flight.enabled:
            self._flight.record(
                "inval_mint", now, seq=record.seq, op=op, path=path
            )
        for peer in self.peers:
            self._send(
                peer,
                MessageKind.INVALIDATE,
                {"record": record.as_payload()},
                now,
                trace=trace_ctx,
            )
        if span is not None:
            # Suspected peers are expected to miss this publish, each once
            # however many copies duplication faults put on the wire.
            span.event(
                "cohort_publish",
                seq=record.seq,
                op=op,
                peers=len(self.peers),
                missing=len(self.suspected),
            )
            span.finish(
                "COHORT-PUBLISH", self.member_id, 0.0, len(self.peers)
            )

    # ------------------------------------------------------------------
    # Protocol pump
    # ------------------------------------------------------------------
    def tick(self, now: float) -> List[GatewayResponse]:
        """Drain messages, heartbeat, update suspicion; returns any
        admission-queue completions so the caller can audit them."""
        self._clock = now
        self.drain(now)
        if self.client.writeback is not None:
            self.client.maybe_flush(now)
        self._maybe_heartbeat(now)
        self._update_suspicion(now)
        if self.client.admission.queue_depth:
            return self.client.pump(now)
        return []

    def drain(self, now: float) -> int:
        """Apply every protocol message that has arrived by ``now``."""
        handled = 0
        while True:
            try:
                message = self.mailbox.get_nowait()
            except queue.Empty:
                break
            if message.arrival_vtime > now:
                heapq.heappush(
                    self._deferred,
                    (message.arrival_vtime, self._deferred_seq, message),
                )
                self._deferred_seq += 1
                continue
            self._handle(message, now)
            handled += 1
        while self._deferred and self._deferred[0][0] <= now:
            _, _, message = heapq.heappop(self._deferred)
            self._handle(message, now)
            handled += 1
        return handled

    def _handle(self, message: Message, now: float) -> None:
        sender = message.sender
        if sender in self.last_heard:
            self.last_heard[sender] = now
        payload = message.payload
        if message.kind is MessageKind.INVALIDATE:
            self._ingest(
                InvalidationRecord.from_payload(payload["record"]), now
            )
        elif message.kind is MessageKind.COHORT_HEARTBEAT:
            self._c["heartbeats"].labels(self._label).inc()
            latest = int(payload["latest"])
            if sender in self.streams:
                self._check_for_gap(sender, latest, now)
                acked = payload.get("acked", {})
                mine = int(acked.get(self.member_id, 0))
                if mine > self.acked_seq.get(sender, 0):
                    self.acked_seq[sender] = mine
                    self._maybe_truncate()
        elif message.kind is MessageKind.COHORT_SYNC:
            since = int(payload["since"])
            # Offset-aware suffix: ``base`` is where the reply actually
            # starts.  A requester further behind than the truncation
            # floor sees ``base > since`` and knows the gap records are
            # unrecoverable.
            start = max(since, self.log.base)
            self._send(
                sender,
                MessageKind.COHORT_SYNC_REPLY,
                {
                    "records": [r.as_payload() for r in self.log.after(start)],
                    "latest": self.log.last,
                    "base": start,
                },
                now,
            )
        elif message.kind is MessageKind.COHORT_SYNC_REPLY:
            base = int(payload.get("base", 0))
            stream = self.streams.get(sender)
            if stream is not None and base > stream.floor:
                # The suffix we asked for was truncated away: the missing
                # records are unrecoverable, so skip the gap and fall back
                # to a full TTL re-clamp — every surviving lease expires
                # within ``ttl_clamp_s``, which bounds whatever staleness
                # the lost invalidations would have cured.  Records held
                # above the skipped gap may now be due.
                self._c["reclamp"].labels(self._label).inc()
                for record in stream.skip_to(base):
                    self._apply(record)
                self.gap_since[sender] = None
                self.client.cache.clamp_ttl(self.config.ttl_clamp_s, now)
            for raw in payload["records"]:
                record = InvalidationRecord.from_payload(raw)
                if self._ingest(record, now):
                    self._c["sync_records"].labels(self._label).inc()

    def _ingest(self, record: InvalidationRecord, now: float) -> bool:
        """Apply (or buffer) one record; True when it was new."""
        origin = record.origin
        stream = self.streams.get(origin)
        if stream is None:
            return False  # not a peer (e.g. a departed member)
        due = stream.offer(record.seq, record)
        if due is None:
            self._c["duplicates"].labels(self._label).inc()
            return False
        for ready in due:
            self._apply(ready)
        if stream.held:
            self._note_gap(origin, now)
        else:
            self.gap_since[origin] = None
        return True

    def _apply(self, record: InvalidationRecord) -> None:
        self._c["applied"].labels(self._label, record.op).inc()
        self.client.apply_mutation(record.to_event())
        if self.tracer.enabled and record.trace is not None:
            # The final hop of the mutation's causal tree: this peer
            # dropping the leases the mutation made stale.
            span = self.tracer.start_span(
                record.path,
                self.member_id,
                trace_id=record.trace[0],
                parent_id=record.trace[1],
                component="cohort",
                kind="inval_apply",
            )
            span.event(
                "inval_apply",
                target=self.member_id,
                op=record.op,
                origin=record.origin,
                seq=record.seq,
            )
            span.finish("COHORT-APPLY", self.member_id, 0.0, 1)
        if self._flight.enabled:
            self._flight.record(
                "inval_apply",
                self._clock,
                origin=record.origin,
                seq=record.seq,
                op=record.op,
                path=record.path,
            )

    def _check_for_gap(self, origin: int, latest: int, now: float) -> None:
        stream = self.streams[origin]
        if latest > stream.floor:
            self._note_gap(origin, now)
        elif not stream.held:
            self.gap_since[origin] = None

    def _note_gap(self, origin: int, now: float) -> None:
        if self.gap_since[origin] is None:
            self.gap_since[origin] = now
            self._c["gaps"].labels(self._label).inc()
        if now - self._last_sync_sent[origin] >= RESYNC_INTERVAL_S:
            self._last_sync_sent[origin] = now
            self._c["sync_requests"].labels(self._label).inc()
            self._send(
                origin,
                MessageKind.COHORT_SYNC,
                {"since": self.streams[origin].floor},
                now,
            )

    def _maybe_heartbeat(self, now: float) -> None:
        if not self.peers:
            return
        if now - self._last_heartbeat_sent < self.config.heartbeat_interval_s:
            return
        self._last_heartbeat_sent = now
        payload = {
            "latest": self.log.last,
            "acked": {p: stream.floor for p, stream in self.streams.items()},
        }
        for peer in self.peers:
            self._send(peer, MessageKind.COHORT_HEARTBEAT, payload, now)

    def _maybe_truncate(self) -> None:
        """Drop log records every peer has cumulatively acknowledged.

        ``acked_seq`` only ever lags a peer's true applied sequence (it
        is learned from heartbeats), so truncating to the minimum is
        always safe for the *normal* protocol: any in-flight sync request
        asks from at or above the floor.  A peer that somehow regressed
        below it (reset state) hits the re-clamp fallback instead.
        """
        if not self.peers:
            return
        drop = self.log.truncate(min(self.acked_seq.values()))
        if drop:
            self._c["log_truncated"].labels(self._label).inc(drop)

    def _update_suspicion(self, now: float) -> None:
        cfg = self.config
        threshold = cfg.suspect_after_s
        for peer in self.peers:
            silent = now - self.last_heard[peer] > threshold
            gap = self.gap_since[peer]
            gap_stuck = gap is not None and now - gap > threshold
            if silent or gap_stuck:
                if peer not in self.suspected:
                    # Exactly once per outage: the set guards the counter,
                    # so duplicated heartbeats/records flapping through
                    # drain can never re-count a suspicion.
                    self.suspected.add(peer)
                    self._c["peer_missing"].labels(
                        self._label, str(peer)
                    ).inc()
                    if self._flight.enabled:
                        self._flight.record(
                            "peer_suspected",
                            now,
                            peer=peer,
                            silent=silent,
                            gap_stuck=gap_stuck,
                        )
            elif peer in self.suspected:
                self.suspected.discard(peer)
                self._c["peer_recovered"].labels(
                    self._label, str(peer)
                ).inc()
                if self._flight.enabled:
                    self._flight.record("peer_recovered", now, peer=peer)
        if self.suspected and not self.clamped:
            self.clamped = True
            self._c["clamp_engaged"].labels(self._label).inc()
            if self._flight.enabled:
                self._flight.record(
                    "clamp_engaged", now, suspected=sorted(self.suspected)
                )
            self.client.cache.clamp_ttl(cfg.ttl_clamp_s, now)
        elif not self.suspected and self.clamped:
            self.clamped = False
            self._c["clamp_released"].labels(self._label).inc()
            if self._flight.enabled:
                self._flight.record("clamp_released", now)
            self.client.cache.release_ttl_clamp()

    def _send(
        self,
        dest: int,
        kind: MessageKind,
        payload: Dict[str, object],
        now: float,
        trace: Optional[Tuple[int, int, int]] = None,
    ) -> bool:
        self._c["protocol_sends"].labels(self._label, kind.value).inc()
        message = Message(
            kind=kind,
            sender=self.member_id,
            payload=payload,
            arrival_vtime=now,
            trace=trace,
        )
        return self.transport.send(dest, message)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def published(self) -> int:
        return self.log.last

    def __repr__(self) -> str:
        applied = {p: stream.floor for p, stream in self.streams.items()}
        return (
            f"CohortMember(id={self.member_id}, published={self.published}, "
            f"applied={applied}, "
            f"suspected={sorted(self.suspected)}, clamped={self.clamped})"
        )


class GatewayCohort:
    """N gateways fronting one fleet, kept coherent by multicast.

    Parameters
    ----------
    cluster:
        The shared MDS fleet.  Members are *hook-less*: only the
        invalidation protocol (and a member's own mutations) invalidate
        leases, exactly like separate gateway processes.
    size:
        Number of members (IDs ``0..size-1`` on the cohort transport).
    config:
        Protocol + per-member gateway tunables.
    faults:
        Fault layer for the *cohort* transport (gateway-to-gateway
        links); partitions here island gateways, not MDS nodes.  The
        cohort advances the injector's clock from :meth:`step`.
    """

    def __init__(
        self,
        cluster: MetadataBackend,
        size: int,
        config: Optional[CohortConfig] = None,
        faults: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
        flight: Optional[FlightRecorderHub] = None,
    ) -> None:
        if size < 1:
            raise ValueError(f"cohort size must be >= 1, got {size}")
        self.cluster = cluster
        self.config = config or CohortConfig()
        self.faults: FaultInjector = faults if faults is not None else NULL_INJECTOR
        self.metrics = cluster.metrics
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self.flight = flight
        self.transport = InProcessTransport(injector=self.faults)
        counters = self._register_metrics(self.metrics)
        ids = list(range(size))
        self.members: List[CohortMember] = [
            CohortMember(
                member_id=member_id,
                peers=[p for p in ids if p != member_id],
                cluster=cluster,
                transport=self.transport,
                config=self.config,
                metrics=self.metrics,
                tracer=self.tracer,
                counters=counters,
                flight=flight,
            )
            for member_id in ids
        ]
        self._now = 0.0

    @staticmethod
    def _register_metrics(m: MetricsRegistry) -> Dict[str, object]:
        return {
            "published": m.counter(
                "gateway_cohort_published_total",
                "Invalidation records published, by gateway.",
                labels=("gateway",),
            ),
            "protocol_sends": m.counter(
                "gateway_cohort_protocol_sends_total",
                "Cohort protocol messages handed to the transport.",
                labels=("gateway", "kind"),
            ),
            "applied": m.counter(
                "gateway_cohort_applied_total",
                "Peer invalidation records applied, by gateway and op.",
                labels=("gateway", "op"),
            ),
            "duplicates": m.counter(
                "gateway_cohort_duplicates_total",
                "Records discarded as already seen (duplication faults).",
                labels=("gateway",),
            ),
            "gaps": m.counter(
                "gateway_cohort_gaps_total",
                "Sequence gaps detected in a peer's record stream.",
                labels=("gateway",),
            ),
            "sync_requests": m.counter(
                "gateway_cohort_sync_requests_total",
                "Anti-entropy catch-up requests sent.",
                labels=("gateway",),
            ),
            "sync_records": m.counter(
                "gateway_cohort_sync_records_total",
                "Records recovered via anti-entropy replies.",
                labels=("gateway",),
            ),
            "heartbeats": m.counter(
                "gateway_cohort_heartbeats_total",
                "Heartbeats received, by gateway.",
                labels=("gateway",),
            ),
            "peer_missing": m.counter(
                "gateway_cohort_peer_missing_total",
                "Peer outages observed (once per outage).",
                labels=("gateway", "peer"),
            ),
            "peer_recovered": m.counter(
                "gateway_cohort_peer_recovered_total",
                "Suspected peers heard from again.",
                labels=("gateway", "peer"),
            ),
            "clamp_engaged": m.counter(
                "gateway_cohort_clamp_engaged_total",
                "TTL clamp engagements (graceful degradation).",
                labels=("gateway",),
            ),
            "clamp_released": m.counter(
                "gateway_cohort_clamp_released_total",
                "TTL clamp releases after all peers recovered.",
                labels=("gateway",),
            ),
            "log_truncated": m.counter(
                "gateway_cohort_log_truncated_total",
                "Invalidation log records truncated after every peer's "
                "cumulative ack covered them.",
                labels=("gateway",),
            ),
            "reclamp": m.counter(
                "gateway_cohort_reclamp_total",
                "Full TTL re-clamps after a sync found its gap records "
                "truncated (unrecoverable).",
                labels=("gateway",),
            ),
        }

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def step(self, now: float) -> Dict[int, List[GatewayResponse]]:
        """One protocol round: advance faults, tick members in ID order.

        Returns admission-queue completions per member (usually empty)
        so harnesses can audit late answers too.
        """
        if now < self._now:
            raise ValueError(f"cohort clock went backward: {now} < {self._now}")
        self._now = now
        if self.faults.enabled and now > self.faults.now:
            self.faults.advance(now)
        drained: Dict[int, List[GatewayResponse]] = {}
        for member in self.members:
            responses = member.tick(now)
            if responses:
                drained[member.member_id] = responses
        return drained

    def settle(self, now: float) -> float:
        """Run quiescing steps so in-flight protocol traffic lands.

        Advances virtual time by one heartbeat interval per round, enough
        rounds to clear suspicion and the clamp once the fault plan has
        gone quiet.  Returns the final time.
        """
        cfg = self.config
        rounds = (
            int((cfg.suspect_after_s + cfg.ttl_clamp_s) / cfg.heartbeat_interval_s)
            + 3
        )
        clock = now
        for _ in range(rounds):
            clock += cfg.heartbeat_interval_s
            self.step(clock)
        return clock

    def flush_barrier(self, now: float) -> Dict[int, FlushReport]:
        """Barrier every member's write-back buffer, in member order."""
        return {
            member.member_id: member.flush_barrier(now)
            for member in self.members
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def backend_queries(self) -> int:
        return sum(m.client.backend_queries for m in self.members)

    @property
    def invalidation_messages(self) -> int:
        """Protocol messages on the wire (invalidations + heartbeats +
        sync traffic), as counted by the cohort transport."""
        return self.transport.messages_sent

    def counter_snapshot(self) -> Dict[str, Dict[Tuple[str, ...], float]]:
        """Every ``gateway_cohort_*`` counter child, for determinism tests."""
        snapshot: Dict[str, Dict[Tuple[str, ...], float]] = {}
        for family in self.metrics.families():
            if not family.name.startswith("gateway_cohort_"):
                continue
            snapshot[family.name] = {
                labels: child.value  # type: ignore[attr-defined]
                for labels, child in family.children()
            }
        return snapshot

    def __repr__(self) -> str:
        return (
            f"GatewayCohort(size={self.size}, "
            f"backend_queries={self.backend_queries}, "
            f"protocol_messages={self.invalidation_messages})"
        )
