"""The prototype cluster: a fleet of MDS node threads plus a directory.

``PrototypeCluster`` builds either a G-HBA deployment (nodes packed into
groups of at most M, each group holding one replica mirror) or an HBA
deployment (every node holds every replica: the same directory at M = 1).
Clients call :meth:`lookup`: :func:`repro.core.walk.walk` decides the
L1 -> L4 sequence and a :class:`_WireWalk` sends each step over the
transport.  G-HBA joins and departures are plans from
:mod:`repro.core.reconfiguration`, sent step by step as messages so
Figure 15's counts are observed on the wire; an HBA join or departure
reaches the plan's directory by its own, cheaper, piggy-backed exchange.
"""

from __future__ import annotations

import dataclasses
import random
import threading
from typing import Dict, Iterable, List, Optional

from repro.core.checkpoint import restore_server, snapshot_server
from repro.core import reconfiguration
from repro.core.cluster import populate_servers
from repro.core.config import GHBAConfig
from repro.core.query import QueryLevel, QueryResult
from repro.core.walk import walk
from repro.faults.retry import RetryPolicy
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.prototype.messages import Message, MessageKind
from repro.prototype.node import MDSNode
from repro.prototype.transport import InProcessTransport, TransportClosed

#: Client sender ID used in messages.
CLIENT = -1


class _WireWalk:
    """One :meth:`PrototypeCluster.lookup` as the executor of
    :func:`repro.core.walk.walk`: every step is a request (or a gather)
    over the transport, timed on the nodes' virtual clocks.  It decides
    nothing.  ``messages`` is what the lookup puts on the wire when
    nothing is retried: 2 per answered request, 1 per lost one, requests
    plus replies per gather, 1 for the closing ``RECORD_LRU``.

    MDS-to-MDS steps carry ``sender=origin_id`` so the fault layer can
    sever them along group partitions; the client itself is never
    partitioned from the service.  A step that fails is not an exception:
    the lookup is ``degraded`` and the retry budget is charged as latency.
    """

    def __init__(
        self, cluster: "PrototypeCluster", path: str, origin_id: int, vtime: float
    ) -> None:
        self.cluster = cluster
        self.transport = cluster.transport
        self.path = path
        self.origin_id = origin_id
        self.span = cluster.tracer.start_span(
            path, origin_id, component="prototype", kind="lookup"
        )
        # Causal context threaded onto every protocol message of this
        # lookup (None when tracing is off — no per-message allocation).
        self.trace_ctx = (
            self.span.context(origin_id) if cluster.tracer.enabled else None
        )
        self.hop_s = cluster.config.network.unicast_ms / 1000.0
        #: Virtual time: the lookup's start, and where it has got to — a
        #: request sent now arrives one hop later.
        self.vtime = self.t = vtime
        self.checkpoint_ms = 0.0
        self.messages = 0
        self.degraded = False
        # Virtual wait a client spends on a request that never answers.
        retry = self.transport.retry
        self.exhaust_penalty_s = retry.timeout_s * retry.max_attempts
        #: The origin's L2 hits once known: PROBE_LOCAL carries L1 + L2 in
        #: one request and skips L2 when L1 is unique.
        self.l2_hits: Optional[List[int]] = None
        self.forget = False
        #: The origin's group and its other members, whom L3 asks.
        self.group_id = cluster.directory.group_of(origin_id)
        members = cluster.directory.groups[self.group_id]
        self.peers = [m for m in members if m != origin_id]

    def hop(self, kind: str, target: Optional[int] = None, msg: int = 0, **detail) -> None:
        """Span event covering the virtual latency since the last hop."""
        elapsed_ms = (self.t - self.vtime) * 1000.0
        self.span.event(
            kind,
            target=target,
            latency_ms=elapsed_ms - self.checkpoint_ms,
            messages=msg,
            **detail,
        )
        self.checkpoint_ms = elapsed_ms

    def _message(self, kind: MessageKind, arrival: float, **payload) -> Message:
        return Message(
            kind=kind,
            sender=self.origin_id,
            payload=payload,
            arrival_vtime=arrival,
            trace=self.trace_ctx,
        )

    def _ask(self, dest: int, kind: MessageKind, **payload) -> Dict[str, object]:
        """One request about the path; the clock moves on to when its reply
        is back.  An empty answer (not an exception) on failure."""
        arrival = self.t + self.hop_s
        message = self._message(kind, arrival, path=self.path, **payload)
        try:
            answer = self.transport.request(dest, message).payload
        except (TransportClosed, TimeoutError):
            self.messages += 1
            self.degraded = True
            self.t = max(self.t, arrival + self.exhaust_penalty_s)
            self.hop("step_timeout", target=dest)
            return {}
        self.messages += 2
        self.t = answer["finish_vtime"] + self.hop_s
        return answer

    def _gather(self, dests: List[int], kind: MessageKind):
        """``kind`` to every one of ``dests`` at once; returns the replies
        and the virtual time the last of them (or the retry budget, when
        some never answered) was in."""
        arrival = self.t + self.hop_s
        result = self.transport.gather(
            dests, lambda dest: self._message(kind, arrival, path=self.path)
        )
        self.messages += len(dests) + len(result.replies)
        finish = self.t
        for reply in result.replies.values():
            finish = max(finish, reply.payload["finish_vtime"])
        if not result.complete:
            # Waited out the silent members before giving up.
            self.degraded = True
            finish = max(finish, arrival + self.exhaust_penalty_s)
        return result.replies, finish

    # ---- L1 (+ L2, batched): one request to the origin node ------------
    def probe_lru(self) -> List[int]:
        answer = self._ask(self.origin_id, MessageKind.PROBE_LOCAL)
        # An unreachable origin has nothing local to probe.
        hits, self.l2_hits = answer.get("l1_hits", []), answer.get("l2_hits", [])
        self.hop("l1_probe", target=self.origin_id, msg=2, hits=len(hits))
        return hits

    def forget_lru(self) -> None:
        self.forget = True  # rides on the PROBE_SEGMENT that follows

    # ---- L2: already answered, or a separate probe after a refuted L1 ---
    def probe_segment(self) -> List[int]:
        if self.l2_hits is None:
            answer = self._ask(
                self.origin_id, MessageKind.PROBE_SEGMENT, forget=self.forget
            )
            self.l2_hits = answer.get("hits", [])
        self.hop("l2_probe", target=self.origin_id, hits=len(self.l2_hits))
        return self.l2_hits

    # ---- L3: multicast within the origin's group ------------------------
    def multicast(self) -> List[int]:
        replies, finish = self._gather(self.peers, MessageKind.PROBE_SEGMENT)
        hits = set(self.l2_hits)
        for reply in replies.values():
            hits.update(reply.payload["hits"])
        self.t = finish + self.hop_s
        self.hop(
            "group_multicast",
            target=self.group_id,
            msg=2 * len(self.peers),
            hits=len(hits),
        )
        return sorted(hits)

    # ---- A unique hit: forward to it for verification --------------------
    def forward(self, target: int) -> bool:
        self.hop("forward", target=target, msg=2)
        found = self._ask(target, MessageKind.VERIFY).get("found", False)
        self.hop("verify", target=target, found=found)
        if not found:
            self.hop("false_forward", target=target)
        return found

    # ---- L4: global multicast — every node verifies locally --------------
    def broadcast(self) -> Optional[int]:
        origin_id = self.origin_id
        others = [nid for nid in self.cluster.node_ids() if nid != origin_id]
        replies, finish = self._gather(others, MessageKind.VERIFY)
        home: Optional[int] = None
        for node_id, reply in replies.items():
            if reply.payload["found"]:
                home = node_id
        # The origin itself may be the home; it is asked alongside.
        if self._ask(origin_id, MessageKind.VERIFY).get("found"):
            home = origin_id
        self.t = max(self.t, finish + self.hop_s)
        self.hop(
            "global_multicast",
            msg=2 * (len(others) + 1),
            found=home is not None,
        )
        return home

    def finish(self, level: int, home: Optional[int], false_forwards: int) -> QueryResult:
        """Feed the answer back into the origin's L1, book the lookup's
        totals, close the span."""
        cluster = self.cluster
        level = QueryLevel(level)
        if home is not None:
            hint = Message(
                kind=MessageKind.RECORD_LRU,
                sender=CLIENT,
                payload={"path": self.path, "home_id": home},
                arrival_vtime=self.t,
                trace=self.trace_ctx,
            )
            try:
                self.transport.send(self.origin_id, hint)
                self.messages += 1
            except TransportClosed:
                pass  # origin crashed mid-lookup; the hint is lost
        latency_ms = (self.t - self.vtime) * 1000.0
        cluster._lookups_by_level.labels(level.label).inc()
        cluster._lookup_latency.observe(latency_ms)
        if self.degraded:
            cluster._degraded_lookups.inc()
        self.span.finish(
            level.label, home, latency_ms, self.span.total_event_messages()
        )
        return QueryResult(
            self.path, home, level, latency_ms, self.messages, false_forwards,
            self.origin_id, self.degraded,
        )


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
        retry: Optional[RetryPolicy] = None,
        flight=None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if scheme not in ("ghba", "hba"):
            raise ValueError(f"scheme must be 'ghba' or 'hba', got {scheme!r}")
        self.config = config or GHBAConfig()
        self.scheme = scheme
        #: The directory's M.  HBA is G-HBA at M = 1: every node a group of
        #: its own, holding a replica of everybody else.
        self.max_group_size = 1 if scheme == "hba" else self.config.max_group_size
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional FlightRecorderHub; crash_node records and dumps here.
        self.flight = flight
        #: Per-level lookup counts, lookup latency, wire message totals.
        self.metrics = MetricsRegistry()
        self.transport = InProcessTransport(retry=retry, metrics=self.metrics)
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
        #: Who is in which group and which member hosts whose replica.
        self.directory = reconfiguration.Directory()
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
        # Formation happens before traffic, like population: its fetches
        # are applied in place rather than sent.
        plan = reconfiguration.form(sorted(self.nodes), self.max_group_size)
        self.directory = plan.directory
        for step in plan.steps:
            replica = self.nodes[step.home].server.publish_filter()
            self.nodes[step.dst].server.host_replica(step.home, replica)

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
        """Apply a per-node memory budget to every live node and to every
        node built later (a newcomer, a restored crash).

        Used by the latency experiments to anchor both schemes to the same
        absolute budget after population, when working sets are measurable.
        """
        self.config = dataclasses.replace(
            self.config, memory_budget_bytes=budget_bytes
        )
        for node in self.nodes.values():
            node.server.memory_budget_bytes = budget_bytes

    def mean_working_set_bytes(self) -> float:
        """Mean per-node memory footprint as of each node's last refresh."""
        totals = [node.server.footprint_bytes for node in self.nodes.values()]
        return sum(totals) / len(totals)

    def _refresh_replicas(self) -> None:
        """Re-publish every node's filter into the hosting structures."""
        for node_id, node in self.nodes.items():
            template = node.server.publish_filter()
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
    ) -> QueryResult:
        """Resolve ``path`` via real messages: :func:`repro.core.walk.walk`
        decides, a :class:`_WireWalk` sends each step and pays the wire.
        ``latency_ms`` is virtual, counted from ``vtime``.

        Under fault injection the protocol degrades instead of raising: a
        timed-out step is skipped (its virtual timeout is charged to the
        latency), a multicast that lost members goes on with the replies
        it has, and the result is flagged ``degraded``.
        """
        if origin_id is None:
            with self._lock:
                origin_id = self._rng.choice(sorted(self.nodes))
        x = _WireWalk(self, path, origin_id, vtime)
        return x.finish(*walk(x))

    def verify_batch(
        self,
        node_id: int,
        paths: List[str],
    ) -> Dict[str, object]:
        """Multi-key direct verification at ``node_id`` over the wire.

        The gateway's batch path: one VERIFY_BATCH request carries every
        key predicted onto the node; the reply maps path → found.  On a
        timeout (fault injection, a crashed node) ``degraded`` is True and
        ``found`` is empty — the caller falls back to per-key
        :meth:`lookup`.
        """
        if node_id not in self.nodes and node_id not in self._crashed:
            raise KeyError(f"unknown node {node_id}")
        payload = {"paths": list(paths)}
        return self._batch_request(
            node_id, MessageKind.VERIFY_BATCH, payload, "found", {}
        )

    def _batch_request(
        self,
        node_id: int,
        kind: MessageKind,
        payload: Dict[str, object],
        answer: str,
        nothing: object,
    ) -> Dict[str, object]:
        """One client round trip carrying a batch to ``node_id``.

        Returns the reply's ``answer`` field with the virtual latency; on
        a timeout or a vanished node, ``nothing`` in its place, the whole
        retry budget as the latency, and ``degraded`` set.  A node that
        refused the request (an ``error`` reply) raises :class:`ValueError`
        naming the node and its message.
        """
        net = self.config.network
        message = Message(
            kind=kind,
            sender=CLIENT,
            payload=payload,
            arrival_vtime=net.unicast_ms / 1000.0,
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
        if "error" in reply.payload:
            raise ValueError(
                f"node {node_id} refused {kind.value}: {reply.payload['error']}"
            )
        finish = reply.payload["finish_vtime"] + net.unicast_ms / 1000.0
        return {
            answer: reply.payload[answer],
            "virtual_latency_ms": finish * 1000.0,
            "degraded": False,
        }

    def apply_mutation_batch(
        self,
        node_id: int,
        mutations: List[Dict[str, object]],
        origin: int = 0,
        acked_version: int = 0,
    ) -> Dict[str, object]:
        """Flush one write-back mutation batch to ``node_id`` over the wire.

        Each mutation dict carries ``version``/``op``/``path`` (plus
        ``record`` for creates); the node applies them **at most once**
        per ``(origin, version)`` — the transport's retry policy may
        duplicate the request, and the node's durable dedup record (the
        per-origin ack floor plus the outcomes cached above it) absorbs
        the replay.  On a timeout (crash, drop schedule beyond
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
            node_id, MessageKind.MUTATE_BATCH, payload, "outcomes", []
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
        plan = planner(self.directory, node_id, self.max_group_size)
        in_flight: set = set()  # nodes owed a replica some peer is relaying
        for step in plan.steps:
            holds = step.kind in (reconfiguration.MOVE, reconfiguration.DROP)
            if holds and step.src in in_flight:
                self.quiesce()
                in_flight.clear()
            self._send(step)
            if step.dst is not None:
                in_flight.add(step.dst)
        self.directory = plan.directory

    def _hba_join(self, newcomer: MDSNode) -> None:
        """HBA join: exchange Bloom filters with every existing node — the
        directory of the plan at M = 1, reached by one piggy-backed round
        trip per node (2N messages) instead of the plan's steps."""
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
        self.directory = reconfiguration.join(
            self.directory, newcomer.node_id, 1
        ).directory

    def remove_node(self, node_id: int) -> Dict[str, int]:
        """Gracefully remove a node via the live protocol (Section 3.1).

        The departing node's hosted replicas migrate to remaining group
        members; every other group is told to drop its replica; its
        metadata records are re-homed out of band (like population).
        Groups that now fit within M merge; survivors forget their L1
        entries naming it.  Returns message counts.
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
        for survivor in survivors:
            self.nodes[survivor].server.lru.invalidate_home(node_id)
        self._refresh_replicas()
        return {"node_id": node_id, "messages": messages}

    def _hba_leave(self, node_id: int) -> None:
        """HBA departure: every survivor is told to drop the replica."""
        self.directory = reconfiguration.leave(self.directory, node_id, 1).directory
        for other_id in self.node_ids():
            if other_id != node_id:
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
        """Assert each group holds a full, balanced mirror of the outside
        nodes and that every node hosts exactly what the directory names."""
        self.directory.check(self.max_group_size)
        self.directory.check_hosts(
            {nid: node.server.hosted_replicas() for nid, node in self.nodes.items()}
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
