"""The prototype cluster: a fleet of MDS node threads plus a directory.

``PrototypeCluster`` builds either a G-HBA deployment (nodes packed into
groups of at most M, each group holding one replica mirror) or an HBA
deployment (every node holds every replica).  Clients call :meth:`lookup`,
which drives the real request/reply protocol over the transport.  G-HBA
joins and departures are plans from :mod:`repro.core.reconfiguration`,
sent step by step as messages so Figure 15's counts are observed on the
wire.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.checkpoint import restore_server, snapshot_server
from repro.core import reconfiguration
from repro.core.cluster import populate_servers
from repro.core.config import GHBAConfig
from repro.core.query import QueryLevel
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryPolicy
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.prototype.messages import Message, MessageKind
from repro.prototype.node import MDSNode
from repro.prototype.transport import InProcessTransport, TransportClosed

#: Client sender ID used in messages.
CLIENT = -1


@dataclass(frozen=True)
class LookupOutcome:
    """Result of one prototype lookup.

    ``degraded`` is True when a fault forced the lookup off its normal
    path — a protocol step timed out, a multicast lost members, or the
    group probe escalated to the global broadcast.  Fault-free lookups
    always report False.
    """

    path: str
    home_id: Optional[int]
    level: QueryLevel
    virtual_latency_ms: float
    origin_id: int
    degraded: bool = False

    @property
    def found(self) -> bool:
        return self.home_id is not None


class PrototypeCluster:
    """A running fleet of MDS nodes.

    Parameters
    ----------
    num_nodes:
        Initial node count.
    config:
        Shared configuration; ``max_group_size`` is G-HBA's M.
    scheme:
        ``"ghba"`` or ``"hba"``.
    seed:
        Seed for origin selection and placement.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; each :meth:`lookup`
        opens a span over the real request/reply protocol hops.
    metrics:
        Optional shared :class:`~repro.obs.registry.MetricsRegistry` for
        per-level lookup counts, lookup latency and wire message totals.
    injector:
        Optional :class:`~repro.faults.injector.FaultInjector` installed
        on the transport; lookups degrade gracefully (escalating to the
        global broadcast) instead of failing when it loses messages.
    retry:
        Optional :class:`~repro.faults.retry.RetryPolicy` for the
        transport's request/gather retries.
    """

    def __init__(
        self,
        num_nodes: int,
        config: Optional[GHBAConfig] = None,
        scheme: str = "ghba",
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        injector: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        flight=None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if scheme not in ("ghba", "hba"):
            raise ValueError(f"scheme must be 'ghba' or 'hba', got {scheme!r}")
        self.config = config or GHBAConfig()
        self.scheme = scheme
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional FlightRecorderHub; crash_node records and dumps here.
        self.flight = flight
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.transport = InProcessTransport(
            injector=injector, retry=retry, metrics=self.metrics
        )
        self._lookups_by_level = self.metrics.counter(
            "proto_lookups_total",
            "Prototype lookups resolved, by hierarchy level.",
            labels=("level",),
        )
        self._lookup_latency = self.metrics.histogram(
            "proto_lookup_latency_ms",
            "Prototype lookup virtual latency in milliseconds.",
            seed=seed,
        ).labels()
        self._degraded_lookups = self.metrics.counter(
            "proto_degraded_lookups_total",
            "Prototype lookups that lost protocol steps to faults.",
        )
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.nodes: Dict[int, MDSNode] = {}
        self._next_node_id = 0
        #: Who is in which group and which member hosts whose replica; HBA
        #: is one group of everybody with no placements.
        self.directory = reconfiguration.Directory()
        #: Node -> group of ``directory``, for the L3 walk (G-HBA only).
        self._group_of: Dict[int, int] = {}
        #: Durable ("on-disk") state of crashed nodes, by node id.
        self._crashed: Dict[int, Dict] = {}
        self._build(num_nodes)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _spawn_node(self) -> MDSNode:
        node = MDSNode(self._next_node_id, self.config, self.transport)
        self.nodes[node.node_id] = node
        self._next_node_id += 1
        node.start()
        return node

    def _build(self, num_nodes: int) -> None:
        for _ in range(num_nodes):
            self._spawn_node()
        node_ids = sorted(self.nodes)
        if self.scheme == "hba":
            self.directory = reconfiguration.Directory({0: node_ids}, {0: {}}, 1)
            # Full replication: every node hosts every other node's filter.
            for node_id in node_ids:
                replica = self.nodes[node_id].server.publish_filter()
                for other_id in node_ids:
                    if other_id != node_id:
                        self.nodes[other_id].server.host_replica(
                            node_id, replica.copy()
                        )
            return
        # Formation happens before traffic, like population: its fetches
        # are applied in place rather than sent.
        plan = reconfiguration.form(node_ids, self.config.max_group_size)
        self._adopt(plan.directory)
        for step in plan.steps:
            replica = self.nodes[step.home].server.publish_filter()
            self.nodes[step.dst].server.host_replica(step.home, replica)

    def _adopt(self, directory: reconfiguration.Directory) -> None:
        """``directory`` is current from now on; index it by node."""
        self.directory = directory
        self._group_of = {
            node: gid for gid, members in directory.groups.items() for node in members
        }

    @property
    def groups(self) -> Dict[int, List[int]]:
        """Group ID -> sorted member list."""
        return self.directory.groups

    def _tell(self, node_id: int, kind: MessageKind, **payload) -> None:
        """One control message from the coordinating client to ``node_id``
        (one-way: counted on the wire, no reply awaited)."""
        self.transport.send(
            node_id, Message(kind=kind, sender=CLIENT, payload=payload)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node_ids(self) -> List[int]:
        return sorted(self.nodes)

    # ------------------------------------------------------------------
    # Population (out of band, before query traffic)
    # ------------------------------------------------------------------
    def populate(self, paths: Iterable[str], policy: str = "random") -> Dict[str, int]:
        """Insert fresh records and refresh every replica (direct, bulk)."""
        servers = {node_id: node.server for node_id, node in self.nodes.items()}
        placement = populate_servers(servers, paths, policy, self._rng)
        self._refresh_replicas()
        return placement

    def set_memory_budget(self, budget_bytes: Optional[int]) -> None:
        """Apply a per-node memory budget to every node (and future state).

        Used by the latency experiments to anchor both schemes to the same
        absolute budget after population, when working sets are measurable.
        """
        for node in self.nodes.values():
            node.server.memory.budget_bytes = budget_bytes

    def mean_working_set_bytes(self) -> float:
        """Mean per-node bytes across all registered memory consumers."""
        totals = [node.server.memory.total_bytes for node in self.nodes.values()]
        return sum(totals) / len(totals)

    def _refresh_replicas(self) -> None:
        """Re-publish every node's filter into the hosting structures."""
        for node_id, node in self.nodes.items():
            template = node.server.publish_filter()
            if self.scheme == "hba":
                for other in self.nodes.values():
                    if other.node_id != node_id:
                        other.server.replace_replica(node_id, template.copy())
                continue
            for placements in self.directory.placements.values():
                host = placements.get(node_id)
                # A crashed host misses the refresh; it rejoins with its
                # checkpointed (possibly stale) replica set.
                if host is not None and host in self.nodes:
                    self.nodes[host].server.replace_replica(
                        node_id, template.copy()
                    )

    # ------------------------------------------------------------------
    # Lookup protocol
    # ------------------------------------------------------------------
    def lookup(
        self,
        path: str,
        vtime: float = 0.0,
        origin_id: Optional[int] = None,
    ) -> LookupOutcome:
        """Resolve ``path`` via real messages; return the virtual latency.

        Under fault injection the protocol degrades instead of raising: a
        timed-out step is skipped (its virtual timeout is charged to the
        latency), an incomplete group multicast escalates to the global
        broadcast, and the outcome is flagged ``degraded``.
        """
        net = self.config.network
        retry = self.transport.retry
        if origin_id is None:
            with self._lock:
                origin_id = self._rng.choice(sorted(self.nodes))
        span = self.tracer.start_span(
            path, origin_id, component="prototype", kind="lookup"
        )
        # Causal context threaded onto every protocol message of this
        # lookup (None when tracing is off — no per-message allocation).
        trace_ctx = (
            span.context(origin_id) if self.tracer.enabled else None
        )
        t = vtime + net.unicast_ms / 1000.0
        checkpoint_ms = 0.0
        degraded = False
        # Virtual wait a client spends on a request that never answers.
        exhaust_penalty_s = retry.timeout_s * retry.max_attempts

        def hop(kind: str, target: Optional[int] = None, msg: int = 0, **detail) -> None:
            """Span event covering the virtual latency since the last hop."""
            nonlocal checkpoint_ms
            elapsed_ms = (t - vtime) * 1000.0
            span.event(
                kind,
                target=target,
                latency_ms=elapsed_ms - checkpoint_ms,
                messages=msg,
                **detail,
            )
            checkpoint_ms = elapsed_ms

        def try_request(
            dest: int, kind: MessageKind, arrival: float, **payload
        ) -> Optional[Message]:
            """One protocol request; None (not an exception) on failure.

            MDS-to-MDS protocol steps carry ``sender=origin_id`` so the
            fault layer can sever them along group partitions; the client
            itself is never partitioned from the service.
            """
            nonlocal t, degraded
            message = Message(
                kind=kind,
                sender=origin_id,
                payload=payload,
                arrival_vtime=arrival,
                trace=trace_ctx,
            )
            try:
                return self.transport.request(dest, message)
            except (TransportClosed, TimeoutError):
                degraded = True
                t = max(t, arrival + exhaust_penalty_s)
                hop("step_timeout", target=dest)
                return None

        def verify(target: int, arrival: float) -> Tuple[bool, float]:
            reply = try_request(target, MessageKind.VERIFY, arrival, path=path)
            if reply is None:
                return (False, t)
            finish = reply.payload["finish_vtime"]
            return (reply.payload["found"], finish + net.unicast_ms / 1000.0)

        def verify_hop(target: int) -> bool:
            """Forward to ``target`` for verification, tracing the hops."""
            nonlocal t
            hop("forward", target=target, msg=2)
            found, t = verify(target, t + net.unicast_ms / 1000.0)
            hop("verify", target=target, found=found)
            if not found:
                hop("false_forward", target=target)
            return found

        def record_and_finish(
            level: QueryLevel, home: Optional[int], t_done: float
        ) -> LookupOutcome:
            if home is not None:
                try:
                    self.transport.send(
                        origin_id,
                        Message(
                            kind=MessageKind.RECORD_LRU,
                            sender=CLIENT,
                            payload={"path": path, "home_id": home},
                            arrival_vtime=t_done,
                            trace=trace_ctx,
                        ),
                    )
                except TransportClosed:
                    pass  # origin crashed mid-lookup; the hint is lost
            latency_ms = (t_done - vtime) * 1000.0
            self._lookups_by_level.labels(level.label).inc()
            self._lookup_latency.observe(latency_ms)
            if degraded:
                self._degraded_lookups.inc()
            span.finish(
                level.label,
                home,
                latency_ms,
                span.total_event_messages(),
            )
            return LookupOutcome(
                path=path,
                home_id=home,
                level=level,
                virtual_latency_ms=latency_ms,
                origin_id=origin_id,
                degraded=degraded,
            )

        # L1 + L2: one request to the origin node.
        reply = try_request(origin_id, MessageKind.PROBE_LOCAL, t, path=path)
        if reply is None:
            # The origin itself is unreachable: nothing local to probe;
            # fall through to the global broadcast.
            l1_hits: List[int] = []
            l2_hits: Optional[List[int]] = None
        else:
            t = reply.payload["finish_vtime"] + net.unicast_ms / 1000.0
            l1_hits = reply.payload["l1_hits"]
            l2_hits = reply.payload["l2_hits"]
        hop("l1_probe", target=origin_id, msg=2, hits=len(l1_hits))
        if len(l1_hits) == 1:
            if verify_hop(l1_hits[0]):
                return record_and_finish(QueryLevel.L1, l1_hits[0], t)
            # Stale L1 entry: fall back to a separate L2 probe.
            reply = try_request(
                origin_id,
                MessageKind.PROBE_SEGMENT,
                t + net.unicast_ms / 1000.0,
                path=path,
            )
            if reply is not None:
                t = reply.payload["finish_vtime"] + net.unicast_ms / 1000.0
                l2_hits = reply.payload["hits"]
        hop(
            "l2_probe",
            target=origin_id,
            hits=len(l2_hits) if l2_hits is not None else 0,
        )
        if l2_hits is not None and len(l2_hits) == 1:
            if verify_hop(l2_hits[0]):
                return record_and_finish(QueryLevel.L2, l2_hits[0], t)

        # L3: multicast within the origin's group (G-HBA only).
        if self.scheme == "ghba":
            group_id = self._group_of[origin_id]
            members = [m for m in self.groups[group_id] if m != origin_id]
            if members:
                arrival = t + net.unicast_ms / 1000.0
                result = self.transport.gather(
                    members,
                    lambda dest: Message(
                        kind=MessageKind.PROBE_SEGMENT,
                        sender=origin_id,
                        payload={"path": path},
                        arrival_vtime=arrival,
                        trace=trace_ctx,
                    ),
                )
                hits: set = set(l2_hits or [])
                finish = t
                for reply in result.replies.values():
                    hits.update(reply.payload["hits"])
                    finish = max(finish, reply.payload["finish_vtime"])
                if not result.complete:
                    # Waited out the silent members before giving up.
                    degraded = True
                    finish = max(finish, arrival + exhaust_penalty_s)
                t = finish + net.unicast_ms / 1000.0
                hop(
                    "group_multicast",
                    target=group_id,
                    msg=2 * len(members),
                    hits=len(hits),
                )
                # A unique hit from a *partial* multicast is not trusted:
                # the silent member might host the real home's replica, so
                # the query escalates to the global broadcast instead.
                if len(hits) == 1 and result.complete:
                    target = next(iter(hits))
                    if verify_hop(target):
                        return record_and_finish(QueryLevel.L3, target, t)

        # L4: global multicast — every node verifies locally.
        others = [nid for nid in self.node_ids() if nid != origin_id]
        arrival = t + net.unicast_ms / 1000.0
        result = self.transport.gather(
            others,
            lambda dest: Message(
                kind=MessageKind.VERIFY,
                sender=origin_id,
                payload={"path": path},
                arrival_vtime=arrival,
                trace=trace_ctx,
            ),
        )
        home: Optional[int] = None
        finish = t
        for node_id, reply in result.replies.items():
            finish = max(finish, reply.payload["finish_vtime"])
            if reply.payload["found"]:
                home = node_id
        if not result.complete:
            degraded = True
            finish = max(finish, arrival + exhaust_penalty_s)
        # The origin itself may be the home.
        origin_reply = try_request(
            origin_id, MessageKind.VERIFY, t + net.unicast_ms / 1000.0, path=path
        )
        if origin_reply is not None:
            finish = max(finish, origin_reply.payload["finish_vtime"])
            if origin_reply.payload["found"]:
                home = origin_id
        t = max(t, finish + net.unicast_ms / 1000.0)
        hop(
            "global_multicast",
            msg=2 * (len(others) + 1),
            found=home is not None,
        )
        if home is not None:
            return record_and_finish(QueryLevel.L4, home, t)
        return record_and_finish(QueryLevel.NEGATIVE, None, t)

    def verify_batch(
        self,
        node_id: int,
        paths: List[str],
        vtime: float = 0.0,
    ) -> Dict[str, object]:
        """Multi-key direct verification at ``node_id`` over the wire.

        The gateway's batch path: one VERIFY_BATCH request carries every
        key predicted onto the node; the reply maps path → found.  On a
        timeout (fault injection) ``degraded`` is True and ``found`` is
        empty — the caller falls back to per-key :meth:`lookup`.
        """
        if node_id not in self.nodes:
            raise KeyError(f"unknown node {node_id}")
        payload = {"paths": list(paths)}
        return self._batch_request(
            node_id, MessageKind.VERIFY_BATCH, payload, vtime, "found", {}
        )

    def _batch_request(
        self,
        node_id: int,
        kind: MessageKind,
        payload: Dict[str, object],
        vtime: float,
        answer: str,
        nothing: object,
    ) -> Dict[str, object]:
        """One client round trip carrying a batch to ``node_id``.

        Returns the reply's ``answer`` field with the virtual latency; on
        a timeout or a vanished node, ``nothing`` in its place, the whole
        retry budget as the latency, and ``degraded`` set.
        """
        net = self.config.network
        message = Message(
            kind=kind,
            sender=CLIENT,
            payload=payload,
            arrival_vtime=vtime + net.unicast_ms / 1000.0,
        )
        try:
            reply = self.transport.request(node_id, message)
        except (TransportClosed, TimeoutError):
            retry = self.transport.retry
            penalty = retry.timeout_s * retry.max_attempts
            return {
                answer: nothing,
                "virtual_latency_ms": penalty * 1000.0,
                "degraded": True,
            }
        finish = reply.payload["finish_vtime"] + net.unicast_ms / 1000.0
        return {
            answer: reply.payload[answer],
            "virtual_latency_ms": (finish - vtime) * 1000.0,
            "degraded": False,
        }

    def apply_mutation_batch(
        self,
        node_id: int,
        mutations: List[Dict[str, object]],
        origin: int = 0,
        acked_version: int = 0,
        vtime: float = 0.0,
    ) -> Dict[str, object]:
        """Flush one write-back mutation batch to ``node_id`` over the wire.

        Each mutation dict carries ``version``/``op``/``path`` (plus
        ``record`` for creates); the node applies them **at most once**
        per ``(origin, version)`` — the transport's retry policy may
        duplicate the request, and the node's durable high-water mark
        absorbs the replay.  On a timeout (crash, drop schedule beyond
        the retry budget) ``degraded`` is True and *whether* the batch
        applied is unknown — the caller retries the identical batch or
        declares the loss at its flush barrier.
        """
        if node_id not in self.nodes and node_id not in self._crashed:
            raise KeyError(f"unknown node {node_id}")
        payload = {
            "origin": origin,
            "acked": acked_version,
            "mutations": list(mutations),
        }
        return self._batch_request(
            node_id, MessageKind.MUTATE_BATCH, payload, vtime, "outcomes", []
        )

    # ------------------------------------------------------------------
    # Node addition (Figure 15's measured operation)
    # ------------------------------------------------------------------
    def add_node(self) -> Dict[str, int]:
        """Add one node via the live join protocol; return message counts."""
        before = self.transport.messages_sent
        newcomer = self._spawn_node()
        if self.scheme == "hba":
            self._hba_join(newcomer)
        else:
            self._carry_out(reconfiguration.join, newcomer.node_id)
        # Count only once the wire is quiet: the transfers that nodes relay
        # for COPY_REPLICA_TO / SEND_LOCAL_TO are sent from their threads.
        self.quiesce()
        messages = self.transport.messages_sent - before
        return {"node_id": newcomer.node_id, "messages": messages}

    def quiesce(self) -> None:
        """Wait until every node has drained its mailbox.

        Mailboxes are FIFO, so a PING round trip to each node guarantees all
        previously sent one-way messages (replica transfers) are applied.
        One-way transfers relayed through another node (COPY_REPLICA_TO)
        need two passes: the first drains the control messages, the second
        the transfers they spawned.  Sync pings are not counted on the wire.
        """
        for _ in range(2):
            for node_id in self.node_ids():
                self.transport.request(
                    node_id,
                    Message(kind=MessageKind.PING, sender=CLIENT),
                    count=False,
                )

    def _send(self, step: reconfiguration.Step) -> None:
        """One step of a plan as its control message to the node that acts."""
        if step.kind == reconfiguration.MOVE:
            self._tell(
                step.src,
                MessageKind.COPY_REPLICA_TO,
                home_id=step.home,
                dest=step.dst,
            )
        elif step.kind == reconfiguration.FETCH:
            self._tell(step.src, MessageKind.SEND_LOCAL_TO, dest=step.dst)
        elif step.kind == reconfiguration.DROP:
            self._tell(step.src, MessageKind.DROP_REPLICA, home_id=step.home)
        else:  # notify: the updated IDBFA
            self._tell(step.src, MessageKind.PING)

    def _carry_out(self, planner, node_id: int) -> None:
        """Plan ``node_id``'s join or departure and send it step by step,
        in order.  A move or fetch is relayed — the node told ships the
        replica on from its own thread — so a later step that moves or
        drops what an earlier one is still delivering waits for the wire
        to drain first."""
        plan = planner(self.directory, node_id, self.config.max_group_size)
        in_flight: set = set()  # nodes owed a replica some peer is relaying
        for step in plan.steps:
            holds = step.kind in (reconfiguration.MOVE, reconfiguration.DROP)
            if holds and step.src in in_flight:
                self.quiesce()
                in_flight.clear()
            self._send(step)
            if step.dst is not None:
                in_flight.add(step.dst)
        self._adopt(plan.directory)

    def _hba_join(self, newcomer: MDSNode) -> None:
        """HBA join: exchange Bloom filters with every existing node."""
        template = newcomer.server.publish_filter()
        for node_id in self.node_ids():
            if node_id == newcomer.node_id:
                continue
            reply = self.transport.request(
                node_id,
                Message(
                    kind=MessageKind.EXCHANGE_REPLICA,
                    sender=CLIENT,
                    payload={"home_id": newcomer.node_id, "replica": template.copy()},
                ),
            )
            newcomer.server.host_replica(node_id, reply.payload["replica"])
        self.groups[0].append(newcomer.node_id)

    def remove_node(self, node_id: int) -> Dict[str, int]:
        """Gracefully remove a node via the live protocol (Section 3.1).

        The departing node's hosted replicas migrate to remaining group
        members; every other group is told to drop its replica; its
        metadata records are re-homed out of band (like population).
        Groups that now fit within M merge.  Returns message counts.
        """
        if node_id not in self.nodes:
            raise KeyError(f"unknown node {node_id}")
        if self.num_nodes == 1:
            raise ValueError("cannot remove the last node")
        before = self.transport.messages_sent
        departing = self.nodes[node_id]
        if self.scheme == "hba":
            self._hba_leave(node_id)
        else:
            self._carry_out(reconfiguration.leave, node_id)
        self.quiesce()  # let the one-way drops and transfers land
        messages = self.transport.messages_sent - before
        # Out-of-band re-homing of the departing node's metadata, followed
        # by a replica refresh so the moved files become routable.
        records = list(departing.server.store.records())
        departing.stop()
        del self.nodes[node_id]
        survivors = self.node_ids()
        for index, meta in enumerate(records):
            target = self.nodes[survivors[index % len(survivors)]]
            target.server.insert_metadata(meta)
        self._refresh_replicas()
        return {"node_id": node_id, "messages": messages}

    def _hba_leave(self, node_id: int) -> None:
        self.groups[0].remove(node_id)
        for other_id in self.groups[0]:
            self._tell(other_id, MessageKind.DROP_REPLICA, home_id=node_id)

    # ------------------------------------------------------------------
    # Crash / restore (repro.faults)
    # ------------------------------------------------------------------
    def crash_node(self, node_id: int) -> None:
        """Abruptly kill ``node_id``; its durable state survives "on disk".

        The node's metadata records, Bloom filters and hosted replicas are
        checkpointed (:func:`~repro.core.checkpoint.snapshot_server`) the
        way a real MDS's disk would hold them; :meth:`restore_node` brings
        the node back from exactly that state.  While down, the node is
        deregistered from the transport (requests fail fast with
        :class:`TransportClosed`) and — when a fault injector is active —
        marked silenced so multicast filtering agrees.
        """
        if node_id not in self.nodes:
            raise KeyError(f"unknown node {node_id}")
        node = self.nodes.pop(node_id)
        self._crashed[node_id] = snapshot_server(node.server)
        # Halt the thread with a STOP dropped straight into the mailbox
        # (not a wire message, so not counted).  Queued requests drain
        # first, so no client blocks on a reply the dying node still owes.
        node._mailbox.put(Message(kind=MessageKind.STOP, sender=CLIENT))
        node.join(timeout=5.0)
        self.transport.deregister(node_id)
        if self.flight is not None:
            self.flight.recorder("cluster").record("crash_node", node=node_id)
            # The injector dumps too (once per outage); dump here only
            # when no injector will — a bare crash must still ship its
            # forensic snapshot.
            injector_dumps = (
                self.transport.injector.enabled
                and getattr(self.transport.injector, "flight", None)
                is self.flight
            )
            if not injector_dumps:
                self.flight.dump(f"crash-node-{node_id}")
        if self.transport.injector.enabled:
            self.transport.injector.silence(node_id)

    def restore_node(self, node_id: int) -> MDSNode:
        """Restart a crashed node from its checkpointed "disk" state."""
        state = self._crashed.pop(node_id, None)
        if state is None:
            raise KeyError(f"node {node_id} has no crashed state to restore")
        server = restore_server(state, self.config)
        node = MDSNode(node_id, self.config, self.transport, server=server)
        self.nodes[node_id] = node
        node.start()
        if self.transport.injector.enabled:
            self.transport.injector.restore(node_id)
        return node

    def crashed_node_ids(self) -> List[int]:
        """Nodes whose on-disk state awaits :meth:`restore_node`."""
        return sorted(self._crashed)

    # ------------------------------------------------------------------
    # Consistency check & shutdown
    # ------------------------------------------------------------------
    def check_directory(self) -> None:
        """Assert each G-HBA group holds a full, balanced mirror of the
        outside nodes and that the named hosts really hold the replicas."""
        if self.scheme != "ghba":
            return
        self.directory.check(self.config.max_group_size)
        for group_id, placements in self.directory.placements.items():
            for replica_id, host in placements.items():
                if replica_id not in self.nodes[host].server.segment:
                    raise AssertionError(
                        f"node {host} does not actually host replica "
                        f"{replica_id} (group {group_id})"
                    )

    def shutdown(self) -> None:
        """Stop every node thread."""
        for node in list(self.nodes.values()):
            node.stop()
        self.nodes.clear()

    def __enter__(self) -> "PrototypeCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (
            f"PrototypeCluster(scheme={self.scheme!r}, nodes={self.num_nodes}, "
            f"groups={len(self.groups)})"
        )
