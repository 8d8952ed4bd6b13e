"""The G-HBA cluster: multi-level query, replication and reconfiguration.

This module ties servers and groups into the full scheme:

- **Query critical path** (Section 2.3): L1 local LRU array → L2 local
  segment array → L3 group multicast → L4 global multicast, with latency and
  message accounting per level and the false-positive penalty paths.
- **Replica updates** (Sections 2.4, 3.4): each home MDS compares its live
  filter against the last published version; when the XOR bit-difference
  exceeds the configured threshold, the fresh replica is shipped to *one MDS
  per group*, located through each group's IDBFA.
- **Reconfiguration** (Sections 3.1-3.2): MDS join (with light-weight
  intra-group offloading), departure, group splitting when a group exceeds
  M, and merging when two groups fit within M.
- **Fail-over** (Section 4.5): failed servers are excised from every Bloom
  structure so the service degrades gracefully instead of misrouting.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bloom.algebra import needs_update
from repro.bloom.compressed import transfer_cost_report
from repro.bloom.hashing import shared_family
from repro.core.cellindex import CellIndex, set_bits
from repro.core.config import GHBAConfig
from repro.core import reconfiguration
from repro.core.group import Group, GroupError
from repro.core.query import QueryLevel, QueryResult
from repro.core.walk import walk
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.core.server import MetadataServer
from repro.metadata.attributes import FileMetadata
from repro.metadata.namespace import subtree_bounds
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer


@dataclass
class SyncReport:
    """Outcome of a replica synchronization pass.

    ``bytes_raw`` / ``bytes_compressed`` account the replica payloads
    shipped (each update sends one filter per contacted group), with the
    compressed figure reflecting DEFLATE transfer (the related-work
    compressed-Bloom-filter optimization; see ``repro.bloom.compressed``).
    """

    servers_updated: int = 0
    groups_contacted: int = 0
    messages: int = 0
    false_candidates: int = 0
    latency_ms: float = 0.0
    bytes_raw: int = 0
    bytes_compressed: int = 0

    @property
    def compression_ratio(self) -> float:
        """Compressed payload relative to raw (1.0 when nothing shipped)."""
        if self.bytes_raw == 0:
            return 1.0
        return self.bytes_compressed / self.bytes_raw


@dataclass
class ReconfigReport:
    """Outcome of a join/leave/split/merge operation."""

    server_id: int
    migrated_replicas: int = 0
    messages: int = 0
    split: bool = False
    merged: bool = False
    new_group_id: Optional[int] = None


@dataclass(frozen=True)
class MutationEvent:
    """One namespace/membership mutation, for cache-coherence listeners.

    ``op`` is ``"create"``, ``"delete"``, ``"rename"`` or
    ``"server_removed"``.  For renames ``path``/``new_path`` are the old
    and new *prefixes* (listeners must treat them as subtrees); for the
    others ``path`` is the exact pathname and ``home_id`` the involved
    MDS (the departed server for ``server_removed``).
    """

    op: str
    path: str = ""
    new_path: str = ""
    home_id: Optional[int] = None


@dataclass(frozen=True)
class ChangeEvent:
    """One *applied* namespace mutation, in change-data-capture form.

    Richer than :class:`MutationEvent` (which exists for cache
    invalidation and deliberately omits payloads): a ChangeEvent carries
    enough to *replay* the mutation on another fleet, so the replication
    tier (:mod:`repro.replication`) can ship per-home ordered change
    streams to a standby cluster.

    ``op`` is ``"create"``, ``"delete"`` or ``"rename"``.  ``home_id``
    is the server whose durable state changed — renames are per-home
    under G-HBA (each server re-keys only its own records), so one
    cluster-wide rename emits one ChangeEvent per affected home, with
    ``path``/``new_path`` the old and new prefixes.  ``record`` carries
    the full metadata for creates and is ``None`` otherwise.  Only
    mutations that actually changed durable state are emitted (a no-op
    delete or a conflicted write-back mutation is not a change).
    """

    op: str
    path: str
    home_id: int
    record: Optional[FileMetadata] = None
    new_path: str = ""


@dataclass
class BatchVerifyResult:
    """Outcome of one multi-key direct verification at a single MDS.

    ``results`` maps each asked path to the record found there (``None``
    when the server does not hold it).  ``versions`` carries the backend
    path version of every asked path (0 for never-mutated paths) — the
    base the gateway's write-back arbitration compares against.
    ``degraded`` is True when the target was unreachable (fault
    injection); the results are then empty and the caller must fall back
    to the full query hierarchy.
    """

    server_id: int
    results: Dict[str, Optional[FileMetadata]] = field(default_factory=dict)
    versions: Dict[str, int] = field(default_factory=dict)
    latency_ms: float = 0.0
    messages: int = 0
    degraded: bool = False

    @property
    def found(self) -> int:
        return sum(1 for record in self.results.values() if record is not None)


@dataclass(frozen=True)
class PathMutation:
    """One buffered namespace mutation, as shipped in a MUTATE_BATCH.

    ``version`` is the issuing gateway's monotonically increasing
    mutation sequence number — with the gateway's ``origin`` ID it forms
    the at-most-once dedup key.  ``op`` is ``"create"`` or ``"delete"``
    (renames are barrier operations, never buffered).  ``base_version``
    is the backend path version the client last observed; ``None`` means
    the client held no lease and the apply is unconditional except for
    the structural checks (a create must not mint a second home).
    ``trace`` is the optional ``(trace_id, parent_span_id, origin)``
    causal context; arbitration spans at the home MDS attach to it.
    """

    version: int
    op: str
    path: str
    record: Optional[FileMetadata] = None
    base_version: Optional[int] = None
    trace: Optional[Tuple[int, int, int]] = None


@dataclass(frozen=True)
class MutationOutcome:
    """How the home MDS disposed of one :class:`PathMutation`.

    Exactly one of ``applied``/``conflict`` is True (a no-op delete of
    an absent path counts as applied with ``changed=False``).
    ``deduped`` marks a replay of an already-applied version (a retried
    batch) — the effect happened once; only the ack is repeated.
    """

    version: int
    op: str
    path: str
    applied: bool
    conflict: bool = False
    changed: bool = False
    deduped: bool = False
    new_version: int = 0


@dataclass
class BatchMutateResult:
    """Outcome of one batched mutation flush at a single MDS.

    Mirrors :class:`BatchVerifyResult`: ``degraded`` means the target
    never answered (fault injection) and *nothing* was applied — the
    caller may retry the identical batch; per-version dedup on the
    server makes the retry at-most-once.
    """

    server_id: int
    outcomes: List[MutationOutcome] = field(default_factory=list)
    latency_ms: float = 0.0
    messages: int = 0
    degraded: bool = False


def populate_servers(
    servers: Dict[int, MetadataServer],
    paths: Iterable[str],
    policy: str,
    rng: random.Random,
) -> Dict[str, int]:
    """Bulk-insert fresh metadata records for ``paths`` — the one
    home-assignment rule of every cluster flavour (G-HBA, HBA, prototype).

    ``policy`` is ``"random"`` (the paper: "all MDSs are initially
    populated randomly"; drawn from ``rng``) or ``"round_robin"`` over the
    sorted server IDs.  Inodes continue from the records already held, so
    repeated calls never reuse one.  Returns the placement map.
    """
    if policy not in ("random", "round_robin"):
        raise ValueError(f"unknown policy {policy!r}")
    server_ids = sorted(servers)
    placement: Dict[str, int] = {}
    batches: Dict[int, List[FileMetadata]] = {sid: [] for sid in server_ids}
    inode = sum(server.file_count for server in servers.values())
    for index, path in enumerate(paths):
        if policy == "random":
            home = rng.choice(server_ids)
        else:
            home = server_ids[index % len(server_ids)]
        batches[home].append(FileMetadata(path=path, inode=inode + index))
        placement[path] = home
    for server_id, records in batches.items():
        if records:
            servers[server_id].insert_many(records)
    return placement


def _rename_bounds(old_prefix: str, new_prefix: str) -> Optional[Tuple[str, str]]:
    """``subtree_bounds(old_prefix)`` for a rename, once per rename; None
    when the rename changes nothing.  Raises ``ValueError`` unless both
    prefixes are absolute."""
    if not old_prefix.startswith("/") or not new_prefix.startswith("/"):
        raise ValueError("prefixes must be absolute paths")
    if old_prefix == new_prefix:
        return None
    return subtree_bounds(old_prefix)


#: ``walk`` numbers levels as ``QueryLevel`` does; an index is cheaper than
#: the enum's by-value constructor on a path every query takes, and the
#: label beside each level is cheaper than its ``label`` property.
_LEVELS = (None, *((level, level.label) for level in QueryLevel))


class _ModelWalk:
    """One query of :meth:`GHBACluster.query` as the executor of
    :func:`repro.core.walk.walk`: each step runs on the cluster's own
    servers and is booked in the model column — latency terms (in a fixed
    addition order, so every float is reproducible bit for bit), messages,
    counters, span events.  It decides nothing.

    Span events cost kwargs construction even against the null span, so
    every ``hop`` call site is guarded: with tracing off (``span`` is
    None) the walk emits nothing at all (the zero-overhead discipline).
    """

    __slots__ = (
        "cluster", "path", "origin_id", "origin", "net", "faults", "span",
        "mpm", "rtt", "latency", "checkpoint", "messages", "degraded",
        "group",  # the origin's; looked up when the walk first asks for peers
    )

    def __init__(self, cluster: "GHBACluster", path: str, origin_id: int) -> None:
        self.cluster = cluster
        self.path = path
        self.origin_id = origin_id
        self.origin = cluster.servers[origin_id]
        self.net = net = cluster.net
        self.faults = cluster.faults
        tracer = cluster.tracer
        self.span = tracer.start_span(path, origin_id) if tracer.enabled else None
        # The elementary costs are pure functions of fixed inputs, so one
        # evaluation serves every charge site bit-identically.
        self.mpm = net.memory_probe_ms
        self.rtt = net.round_trip_ms()
        self.latency = 0.0
        self.checkpoint = 0.0  # latency already attributed to a span event
        self.messages = 0
        self.degraded = False

    def hop(self, kind: str, target: Optional[int] = None, msg: int = 0, **detail) -> None:
        """Emit a span event covering the latency since the last hop."""
        self.span.event(
            kind,
            target=target,
            latency_ms=self.latency - self.checkpoint,
            messages=msg,
            **detail,
        )
        self.checkpoint = self.latency

    # ---- L1: local LRU Bloom filter array -----------------------------
    def probe_lru(self) -> Sequence[int]:
        self.latency += self.mpm * max(1, len(self.origin.lru._filters))
        hits = self.origin.probe_lru(self.path).hits
        if self.span is not None:
            self.hop("l1_probe", target=self.origin_id, hits=len(hits))
        return hits

    def forget_lru(self) -> None:
        self.origin.lru.invalidate(self.path)

    # ---- L2: local segment Bloom filter array -------------------------
    def probe_segment(self) -> Sequence[int]:
        self.latency += self.origin.probe_cost_cached(self.net)
        self.latency += self.mpm  # own local filter
        hits = self.origin.probe_segment(self.path).hits
        if self.span is not None:
            self.hop("l2_probe", target=self.origin_id, hits=len(hits))
        return hits

    # ---- L3: multicast within the group -------------------------------
    @property
    def peers(self) -> bool:
        self.group = group = self.cluster.group_of(self.origin_id)
        return group.size > 1

    def multicast(self) -> Sequence[int]:
        cluster, net, origin_id = self.cluster, self.net, self.origin_id
        group = self.group
        self.latency += net.group_multicast_ms(group.size)
        if self.faults.enabled:
            peers, lost_peers = self.faults.filter_targets(
                origin_id, [m for m in group.member_ids() if m != origin_id]
            )
            # Requests go to every peer; only the reachable ones reply.
            self.messages += (group.size - 1) + len(peers)
            if lost_peers:
                self.degraded = True
                self.latency += self.rtt  # waited out the silent members
            num_reached = len(peers)
        else:
            # Fault-free fast path: every peer is reached, so the reply
            # count mirrors the request count and the multicast walks
            # every member's row without a reachability restriction.
            peers = None
            lost_peers = ()
            self.messages += 2 * (group.size - 1)
            num_reached = group.size - 1
        # The multicast waits for the slowest responding member:
        # max(probe_cost + memory_probe_ms) == max(probe_cost) +
        # memory_probe_ms since IEEE addition of a shared constant is
        # monotonic, so the memoized bare costs compare directly.
        worst_cost = -1.0
        for member in group.iter_members():
            sid = member.server_id
            if sid == origin_id or sid in lost_peers:
                continue
            cost = member.probe_cost_cached(net)
            if cost > worst_cost:
                worst_cost = cost
        if worst_cost >= 0.0:
            self.latency += worst_cost + self.mpm
        if peers is None:
            l3 = group.multicast_query(self.path)
        else:
            l3 = group.multicast_query(self.path, member_ids=[origin_id] + peers)
        cluster._group_multicasts_by[group.group_id].value += 1
        if self.span is not None:
            l3_detail = {"lost": len(lost_peers)} if lost_peers else {}
            self.hop(
                "group_multicast",
                target=group.group_id,
                msg=(group.size - 1) + num_reached,
                hits=len(l3.hits),
                **l3_detail,
            )
        return l3.hits

    # ---- A unique hit: send the query there and verify -----------------
    def forward(self, target_id: int) -> bool:
        cluster, origin_id = self.cluster, self.origin_id
        traced = self.span is not None
        if self.faults.enabled and target_id != origin_id:
            reachable, _ = self.faults.filter_targets(origin_id, (target_id,))
            if not reachable:
                # The forward times out: one request on the wire, no
                # reply; the query degrades to the next level.
                self.latency += self.rtt
                self.messages += 1
                self.degraded = True
                if traced:
                    self.hop("forward_timeout", target=target_id)
                return False
        cluster._server_forwards_by[target_id].value += 1
        if target_id != origin_id:
            self.latency += self.rtt
            self.messages += 2
            if traced:
                self.hop("forward", target=target_id, msg=2)
        # Home-MDS verification, charged as filter probe, then store
        # access on a "maybe" (the server reads its store first).
        server = cluster.servers[target_id]
        ((meta, maybe),) = server.verify_many((self.path,))
        self.latency += self.mpm
        if maybe:
            self.latency += server.fetch_penalty_cached(self.net)
        if traced:
            self.hop("verify", target=target_id, found=meta is not None)
        if meta is None:
            cluster._server_false_by[target_id].value += 1
            if traced:
                self.hop("false_forward", target=target_id)
        return meta is not None

    # ---- L4: global multicast -------------------------------------------
    def broadcast(self) -> Optional[int]:
        cluster, net, origin_id = self.cluster, self.net, self.origin_id
        requests = replies = cluster.num_servers - 1
        lost_nodes: Sequence[int] = ()
        if self.faults.enabled and requests:
            # Only the fault filter needs the other servers by name.
            others = [sid for sid in cluster.servers if sid != origin_id]
            others, lost_nodes = self.faults.filter_targets(origin_id, others)
            replies = len(others)
        self.latency += net.global_multicast_ms(cluster.num_servers)
        # Requests go to every other MDS; only the reachable ones reply.
        self.messages += requests + replies
        if lost_nodes:
            self.degraded = True
            self.latency += self.rtt  # waited out the silent nodes
        # Every reached MDS checks its local filter (memory): LOCAL names
        # the positive ones, and they verify against their store.  All run
        # concurrently: charge the slowest.  Were the path stored twice,
        # the answer is the last holder in the order [origin] + others
        # (ascending ids): the origin only when it is the one holder.
        verify_costs = [self.mpm]
        found_home: Optional[int] = None
        for server_id in cluster.index.holders(self.path, lost_nodes):
            server = cluster.servers[server_id]
            meta_fraction = server.resident_fraction
            verify_costs.append(
                net.memory_probe_ms
                + meta_fraction * net.memory_record_ms
                + (1.0 - meta_fraction) * net.disk_access_ms
            )
            if server.store.get(self.path) is not None and (
                found_home is None or server_id != origin_id
            ):
                found_home = server_id
        self.latency += max(verify_costs)
        if self.span is not None:
            l4_detail = {"lost": len(lost_nodes)} if lost_nodes else {}
            self.hop(
                "global_multicast",
                msg=requests + replies,
                found=found_home is not None,
                **l4_detail,
            )
        return found_home

    def finish(self, level: int, home: Optional[int], false_forwards: int) -> QueryResult:
        """Feed the answer back into the origin's L1 (and, cooperatively,
        its peers'), book the query's totals, close the span."""
        cluster, origin_id = self.cluster, self.origin_id
        level, label = _LEVELS[level]
        if home is not None:
            self.origin.record_lru(self.path, home)
            if cluster.config.cooperative_fanout:
                hints = cluster._share_lru_hint(origin_id, self.path, home)
                if hints:
                    self.messages += hints
                    cluster._lru_hints_by[()].value += hints
                    if self.span is not None:
                        self.hop("lru_hint", msg=hints)
        latency, messages = self.latency, self.messages
        result = QueryResult(
            self.path, home, level, latency, messages, false_forwards,
            origin_id, self.degraded,
        )
        if self.degraded:
            cluster._degraded_by[()].value += 1
        cluster._queries_by[label].value += 1
        cluster._latency_child.observe(latency)
        if messages:
            cluster._messages_by[()].value += messages
        if false_forwards:
            cluster._false_forwards_by[()].value += false_forwards
        cluster._server_origin_by[origin_id].value += 1
        if home is not None:
            cluster._server_served_by[home].value += 1
            cluster._group_served_by[cluster._group_of[home]].value += 1
        if self.span is not None:
            self.span.finish(label, home, latency, messages, false_forwards)
        return result


class GHBACluster:
    """A complete G-HBA deployment of ``num_servers`` MDSs.

    Parameters
    ----------
    num_servers:
        Initial number of metadata servers (N).
    config:
        Scheme tunables; ``config.max_group_size`` is the paper's M.
    seed:
        Seed for home-MDS assignment and origin selection.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; every :meth:`query`
        opens a span recording its walk down the hierarchy.  Defaults to
        the no-op :data:`~repro.obs.trace.NULL_TRACER`.
    metrics:
        Optional shared :class:`~repro.obs.registry.MetricsRegistry`; a
        private registry is created when omitted.  All query accounting
        (per-level counts, latency histogram, per-server/per-group load)
        lives here — the legacy ``level_counter`` / ``latency`` /
        ``total_messages`` attributes are read-through views.
    faults:
        Optional :class:`~repro.faults.injector.FaultInjector`; the query
        path asks it which multicast legs are lost and degrades (L3
        escalates to L4; incomplete L4 may resolve NEGATIVE) instead of
        misrouting.  Defaults to the no-op
        :data:`~repro.faults.injector.NULL_INJECTOR`, which keeps the
        fault-free path bit-identical.
    """

    def __init__(
        self,
        num_servers: int,
        config: Optional[GHBAConfig] = None,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        if num_servers < 1:
            raise ValueError(f"num_servers must be >= 1, got {num_servers}")
        self._setup(config or GHBAConfig(), seed, tracer, metrics, faults)
        self._bootstrap(num_servers)

    @classmethod
    def _unformed(cls, config: GHBAConfig) -> "GHBACluster":
        """A cluster with no server and no group yet, seed 0 (checkpoint
        restore fills it through :meth:`_new_server` and :meth:`_new_group`)."""
        cluster = cls.__new__(cls)
        cluster._setup(config, 0, None, None, None)
        return cluster

    def _setup(
        self,
        config: GHBAConfig,
        seed: int,
        tracer: Optional[Tracer],
        metrics: Optional[MetricsRegistry],
        faults: Optional[FaultInjector],
    ) -> None:
        self.config = config
        self.net = config.network  # read on every walk and batch
        self.faults: FaultInjector = faults if faults is not None else NULL_INJECTOR
        self._rng = random.Random(seed)
        self._next_server_id = 0
        self._next_group_id = 0
        self.servers: Dict[int, MetadataServer] = {}
        #: Sorted server IDs, maintained incrementally — the query path
        #: draws a random origin from this list every call and must not
        #: pay an O(N log N) sort per lookup.  IDs are monotonic, so
        #: additions append in order.
        self._sorted_ids: List[int] = []
        self.groups: Dict[int, Group] = {}
        self._group_of: Dict[int, int] = {}
        # Observability: tracer + metrics registry (repro.obs).
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._register_metrics(seed)
        #: Metadata of crashed servers, as persisted on their disks —
        #: recoverable via :meth:`recover_server` (Table 1's recovery).
        self._crashed_stores: Dict[int, List[FileMetadata]] = {}
        #: Cache-coherence listeners (the gateway tier registers here).
        #: Empty by default, so the mutation paths pay one truthiness
        #: check — the NULL_TRACER zero-overhead discipline.
        self._mutation_listeners: List[Callable[[MutationEvent], None]] = []
        #: Change-data-capture listeners (the replication tier registers
        #: here).  Same zero-overhead discipline: every emit site checks
        #: truthiness before building the event.
        self._change_listeners: List[Callable[[ChangeEvent], None]] = []
        #: Backend path versions: bumped on every namespace mutation of a
        #: path (create/delete/rename, through any entry point).  The
        #: write-back gateway stamps its buffered mutations with the last
        #: version it observed; :meth:`apply_mutation_batch` rejects a
        #: mutation whose base lost the race instead of clobbering.
        #: Never-mutated paths are implicitly at version 0.
        self._path_versions: Dict[str, int] = {}
        #: Every server's live and published filter by cell (L2-L4 probe
        #: it); servers join it in :meth:`_new_server`, leave in
        #: :meth:`_depart`.
        self.index = CellIndex(
            shared_family(
                config.filter_num_hashes, config.filter_num_bits, config.seed
            ),
            self.servers,
        )
        #: Per path, the origins whose L1 array holds it: bit ``1 << sid``
        #: for each (the arrays keep it, DESIGN.md §15), so a delete or a
        #: rename invalidates at those origins and no others.
        self.l1_holders: Dict[str, int] = {}

    def _register_metrics(self, seed: int) -> None:
        """Register every metric family the query path increments."""
        m = self.metrics
        self._queries_by_level = m.counter(
            "ghba_queries_total",
            "Queries served, by hierarchy level.",
            labels=("level",),
        )
        self._query_latency = m.histogram(
            "ghba_query_latency_ms",
            "End-to-end simulated query latency in milliseconds.",
            seed=seed,
        )
        self._latency_child = self._query_latency.labels()
        self._messages = m.counter(
            "ghba_messages_total", "Network messages sent on the query path."
        )
        self._false_forwards_counter = m.counter(
            "ghba_false_forwards_total",
            "Unique Bloom hits that misrouted a query.",
        )
        self._server_served = m.counter(
            "ghba_server_queries_served_total",
            "Queries served, by home server.",
            labels=("server",),
        )
        self._server_origin = m.counter(
            "ghba_server_origin_queries_total",
            "Queries received from clients, by origin server.",
            labels=("server",),
        )
        self._server_forwards = m.counter(
            "ghba_server_forwards_total",
            "Verification forwards, by target server.",
            labels=("server",),
        )
        self._server_false = m.counter(
            "ghba_server_false_forwards_total",
            "False forwards, by (falsely) targeted server.",
            labels=("server",),
        )
        self._group_served = m.counter(
            "ghba_group_queries_served_total",
            "Queries served, by the home server's group.",
            labels=("group",),
        )
        self._group_multicasts = m.counter(
            "ghba_group_multicasts_total",
            "L3 multicasts, by origin group.",
            labels=("group",),
        )
        self._lru_hints = m.counter(
            "ghba_lru_hints_total", "Cooperative LRU hint messages sent."
        )
        self._degraded_queries = m.counter(
            "ghba_degraded_queries_total",
            "Queries that lost multicast legs to faults and degraded.",
        )
        # The walk books through the families' maps: a subscript and an
        # add per counter, the child created at its first booking.
        self._queries_by = self._queries_by_level.by_value
        self._messages_by = self._messages.by_value
        self._false_forwards_by = self._false_forwards_counter.by_value
        self._server_served_by = self._server_served.by_value
        self._server_origin_by = self._server_origin.by_value
        self._server_forwards_by = self._server_forwards.by_value
        self._server_false_by = self._server_false.by_value
        self._group_served_by = self._group_served.by_value
        self._group_multicasts_by = self._group_multicasts.by_value
        self._lru_hints_by = self._lru_hints.by_value
        self._degraded_by = self._degraded_queries.by_value

    # Read-through views kept for the pre-registry API.
    @property
    def level_counter(self):
        """Per-level query counts (a labeled counter family)."""
        return self._queries_by_level

    @property
    def latency(self):
        """Query latency histogram (mean/percentile/count compatible)."""
        return self._latency_child

    @property
    def total_messages(self) -> int:
        return int(self._messages.value)

    @property
    def total_false_forwards(self) -> int:
        return int(self._false_forwards_counter.value)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _new_server(self, server_id: Optional[int] = None) -> MetadataServer:
        """A new, indexed server: the next id, or ``server_id`` (restore)."""
        if server_id is None:
            server_id = self._next_server_id
            self._next_server_id += 1
        server = MetadataServer(server_id, self.config, metrics=self.metrics)
        self.servers[server_id] = server
        bisect.insort(self._sorted_ids, server_id)
        self.index.join(server)
        server.lru.join_holders(self.l1_holders, 1 << server_id)
        return server

    def _new_group(self, group_id: Optional[int] = None) -> Group:
        """A new group: the next id, or ``group_id`` (restore)."""
        if group_id is None:
            group_id = self._next_group_id
            self._next_group_id += 1
        group = Group(group_id, self.index, metrics=self.metrics)
        self.groups[group_id] = group
        return group

    def _bootstrap(self, num_servers: int) -> None:
        """Create servers and carry out the formation plan: balanced
        groups, each holding one replica of every outside server."""
        for _ in range(num_servers):
            self._new_server()
        plan = reconfiguration.form(self.servers, self.config.max_group_size)
        self._carry_out(plan, server_id=-1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_servers(self) -> int:
        return len(self.servers)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def group_of(self, server_id: int) -> Group:
        return self.groups[self._group_of[server_id]]

    def server_ids(self) -> List[int]:
        return list(self._sorted_ids)

    def home_of(self, path: str) -> Optional[int]:
        """Ground-truth home MDS of ``path`` (None if nonexistent).

        Only the stores whose live filter may hold ``path`` are asked:
        every path enters a store through a call that also sets its bits
        in the server's filter, and a filter never loses a bit
        (:meth:`check_invariants` asserts the first).  Were the path
        stored twice, the lowest id answers, as a scan of every store
        would.
        """
        servers = self.servers
        for server_id in self.index.holders(path):
            if servers[server_id].has_metadata(path):
                return server_id
        return None

    def record_at(self, home_id: int, path: str) -> Optional[FileMetadata]:
        """The record ``home_id`` holds for ``path`` (None when it holds
        none): the store access a client pays after a walk named its home."""
        return self.servers[home_id].store.get(path)

    def file_count(self) -> int:
        """Metadata records held fleet-wide."""
        return sum(server.file_count for server in self.servers.values())

    def round_trip_ms(self) -> float:
        """Modelled latency of one client-to-MDS round trip."""
        return self.net.round_trip_ms()

    # ------------------------------------------------------------------
    # Mutation hooks (cache coherence for the gateway tier)
    # ------------------------------------------------------------------
    def add_mutation_listener(
        self, listener: Callable[[MutationEvent], None]
    ) -> None:
        """Register a callback fired on every namespace/membership mutation.

        The gateway tier (:mod:`repro.gateway`) uses this to invalidate
        client-side leases, so a mutation issued *directly* against the
        cluster still reaches every cache in front of it.
        """
        self._mutation_listeners.append(listener)

    def _notify(self, event: MutationEvent) -> None:
        for listener in self._mutation_listeners:
            listener(event)

    def add_change_listener(
        self, listener: Callable[[ChangeEvent], None]
    ) -> None:
        """Register a CDC callback fired on every *applied* mutation.

        The replication tier (:mod:`repro.replication`) uses this to
        capture per-home ordered change streams for a standby fleet.
        Bulk :meth:`populate` is deliberately silent — a standby
        bootstraps from a full checkpoint (``REPL_SYNC``), not from
        replaying the initial load.
        """
        self._change_listeners.append(listener)

    def remove_change_listener(
        self, listener: Callable[[ChangeEvent], None]
    ) -> None:
        self._change_listeners.remove(listener)

    def _emit_change(self, event: ChangeEvent) -> None:
        for listener in self._change_listeners:
            listener(event)

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def path_version(self, path: str) -> int:
        """Backend version of ``path`` (0 when never mutated)."""
        return self._path_versions.get(path, 0)

    def _bump_path_version(self, path: str) -> int:
        version = self._path_versions.get(path, 0) + 1
        self._path_versions[path] = version
        return version

    def insert_file(
        self, meta: FileMetadata, home_id: Optional[int] = None
    ) -> int:
        """Store ``meta`` on ``home_id`` (random MDS when omitted)."""
        if home_id is None:
            home_id = self._rng.choice(self._sorted_ids)
        self._commit_create(home_id, meta)
        return home_id

    def delete_file(self, path: str) -> Optional[int]:
        """Remove the metadata record of ``path`` from its home MDS.

        Returns the home server's ID, or ``None`` when the path exists
        nowhere.  The path's bits linger in the home's Bloom filter until
        the next rebuild (ordinary staleness — queries now pay a false
        verification there and resolve NEGATIVE); stale L1 entries are
        dropped at the origins that hold it, like :meth:`rename_subtree`
        does.
        """
        home_id = self.home_of(path)
        if home_id is None:
            return None
        self._commit_delete(home_id, path)
        return home_id

    def _commit_create(self, home_id: int, meta: FileMetadata) -> int:
        """Make ``home_id`` the home of ``meta``; returns the new path version.

        With :meth:`_commit_delete`, the one place a create or delete
        reaches durable state, whichever entry point it came through — so
        every applied mutation bumps the version once and emits exactly
        one :class:`MutationEvent` and one :class:`ChangeEvent`.
        """
        self.servers[home_id].insert_metadata(meta)
        version = self._bump_path_version(meta.path)
        if self._mutation_listeners:
            self._notify(
                MutationEvent(op="create", path=meta.path, home_id=home_id)
            )
        if self._change_listeners:
            self._emit_change(
                ChangeEvent(
                    op="create", path=meta.path, home_id=home_id, record=meta
                )
            )
        return version

    def _commit_delete(self, home_id: int, path: str) -> int:
        """Remove ``path`` from its home and drop the stale L1 entries at
        the origins that hold it; returns the new path version."""
        self.servers[home_id].remove_metadata(path)
        version = self._bump_path_version(path)
        self._forget_in_l1(path)
        if self._mutation_listeners:
            self._notify(
                MutationEvent(op="delete", path=path, home_id=home_id)
            )
        if self._change_listeners:
            self._emit_change(
                ChangeEvent(op="delete", path=path, home_id=home_id)
            )
        return version

    def _forget_in_l1(self, path: str) -> None:
        """Drop ``path`` from the L1 array of every origin holding it."""
        holders = self.l1_holders.get(path)
        if holders:
            servers = self.servers
            for server_id in set_bits(holders):
                servers[server_id].lru.invalidate(path)

    def populate(
        self, paths: Iterable[str], policy: str = "random"
    ) -> Dict[str, int]:
        """Bulk-insert fresh metadata records (:func:`populate_servers`);
        returns the placement map.  Call :meth:`synchronize_replicas`
        afterwards to publish filters."""
        placement = populate_servers(self.servers, paths, policy, self._rng)
        for path in placement:
            self._bump_path_version(path)
        return placement

    def rename_subtree(self, old_prefix: str, new_prefix: str) -> int:
        """Rename a directory subtree — with *zero* metadata migration.

        This is the operation that cripples pathname-hash placement
        (Section 1.1: "prohibitively high when an upper directory is
        renamed").  Under G-HBA the home MDS of each record is unchanged:
        every server re-keys its own matching records and adds the new
        paths to its local filter.  The old paths' bits linger in the
        filter until the next rebuild (ordinary staleness; queries for the
        old names now resolve NEGATIVE at L4), stale L1 entries for them
        are dropped at the origins that hold them, and replicas refresh
        through the usual XOR-threshold synchronization.

        The rename reaches every server, as it would every MDS, but a
        server that holds nothing under ``old_prefix`` pays one range
        check of its store and nothing more.

        Returns the number of records renamed (none of which crossed
        servers).
        """
        bounds = _rename_bounds(old_prefix, new_prefix)
        if bounds is None:
            return 0
        renamed = 0
        # ``servers`` holds ascending ids, the order server_ids() lists.
        for server in self.servers.values():
            if server.store.holds_under(old_prefix, bounds):
                renamed += self._rekey_at(server, old_prefix, new_prefix, bounds)
        if renamed and self._mutation_listeners:
            self._notify(
                MutationEvent(
                    op="rename", path=old_prefix, new_path=new_prefix
                )
            )
        return renamed

    def rename_subtree_at(
        self, server_id: int, old_prefix: str, new_prefix: str
    ) -> int:
        """Re-key one home's records under ``old_prefix`` — the per-home
        half of :meth:`rename_subtree`.

        Renames never migrate records across servers, so a cluster-wide
        rename is exactly this operation repeated per home.  The
        replication standby applies renames through it (the primary
        emits one :class:`ChangeEvent` per *affected* home), so a rename
        replays on precisely the homes it changed and cannot
        double-apply.  Returns the number of records re-keyed.
        """
        bounds = _rename_bounds(old_prefix, new_prefix)
        if bounds is None:
            return 0
        return self._rekey_at(
            self.servers[server_id], old_prefix, new_prefix, bounds
        )

    def _rekey_at(
        self,
        server: MetadataServer,
        old_prefix: str,
        new_prefix: str,
        bounds: Tuple[str, str],
    ) -> int:
        """Re-key ``server``'s records under ``old_prefix`` (``bounds`` is
        its ``subtree_bounds``), bump both names' versions, drop the old
        names from the L1 arrays holding them, emit the home's change."""
        rekeyed = server.rekey_subtree(old_prefix, new_prefix, bounds)
        if rekeyed:
            for path, new_path in rekeyed:
                # Both names mutated: the old path vanished, the new one
                # appeared — a buffered mutation based on either is stale.
                self._bump_path_version(path)
                self._bump_path_version(new_path)
                self._forget_in_l1(path)
            if self._change_listeners:
                self._emit_change(
                    ChangeEvent(
                        op="rename",
                        path=old_prefix,
                        home_id=server.server_id,
                        new_path=new_prefix,
                    )
                )
        return len(rekeyed)

    # ------------------------------------------------------------------
    # The four-level query critical path (Section 2.3)
    # ------------------------------------------------------------------
    def query(self, path: str, origin_id: Optional[int] = None) -> QueryResult:
        """Resolve the home MDS of ``path`` through the L1-L4 hierarchy:
        :func:`repro.core.walk.walk` decides, a :class:`_ModelWalk` carries
        each step out on this cluster's servers and books what it costs.

        Parameters
        ----------
        path:
            Pathname to look up.
        origin_id:
            MDS receiving the client request (random when omitted —
            "each request can randomly choose an MDS", Section 4).
        """
        if origin_id is None:
            origin_id = self._rng.choice(self._sorted_ids)
        x = _ModelWalk(self, path, origin_id)
        return x.finish(*walk(x))

    def verify_batch(self, server_id: int, paths: Sequence[str]) -> BatchVerifyResult:
        """Multi-key direct verification at one MDS — the gateway's batch path.

        The gateway groups keys whose expired leases predict the same home
        MDS and re-validates them with *one* round trip: the target reads
        its store for every asked path and probes its local filter only
        for the ones it does not hold (``MetadataServer.verify_many``).
        This bypasses the L1-L4 walk entirely when the prediction holds; a
        missing path in ``results`` means the prediction went stale and the
        caller must fall back to :meth:`query`.

        Never called on the direct query path, so clusters that are not
        fronted by a gateway stay bit-identical to pre-gateway builds.
        """
        if not paths:
            raise ValueError("verify_batch requires at least one path")
        net = self.net
        result = BatchVerifyResult(server_id=server_id)
        server = self._batch_target(result)
        if server is None:
            return result
        latency = result.latency_ms
        record_cost = server.fetch_penalty_cached(net)
        # Charged as one filter probe per key plus a record fetch per
        # "maybe"; the server answers stored keys without the probe.
        latency += net.memory_probe_ms * len(paths)
        results = result.results
        for path, (meta, maybe) in zip(paths, server.verify_many(paths)):
            if maybe:
                latency += record_cost
            results[path] = meta
        versions = result.versions
        path_versions = self._path_versions
        for path in paths:
            versions[path] = path_versions.get(path, 0)
        return self._batch_served(
            result,
            latency,
            "ghba_batch_verifies_total",
            "Multi-key gateway verifications served, by server.",
        )

    def _batch_target(self, result) -> Optional[MetadataServer]:
        """The MDS a one-round-trip batch is addressed to, the round trip
        charged to ``result``; None when it is unknown or silenced (fault
        injection) — ``result`` is then the finished degraded answer: the
        request timed out, one message on the wire, no reply."""
        result.latency_ms = self.net.round_trip_ms()
        server_id = result.server_id
        unreachable = server_id not in self.servers or (
            self.faults.enabled and self.faults.is_silenced(server_id)
        )
        if unreachable:
            result.degraded = True
            result.messages = 1
            self._messages.inc(1)
            return None
        return self.servers[server_id]

    def _batch_served(self, result, latency: float, family: str, help_text: str):
        """Close a served batch: request + reply on the wire, the final
        latency, one tick of the per-server ``family`` counter."""
        result.messages = 2
        result.latency_ms = latency
        self._messages.inc(2)
        self.metrics.counter(family, help_text, labels=("server",)).labels(
            result.server_id
        ).inc()
        return result

    def apply_mutation_batch(
        self,
        server_id: int,
        mutations: Sequence[PathMutation],
        origin: int = 0,
        acked_version: int = 0,
    ) -> BatchMutateResult:
        """Apply one flushed write-back batch at its home MDS.

        The gateway's flush path: every mutation buffered for
        ``server_id`` arrives in one round trip, in version order.
        Per-mutation arbitration:

        - A ``base_version`` that no longer matches the live path version
          (a direct mutation or a peer's flush won the race) **conflicts**:
          nothing is clobbered, the outcome reports the winner's version
          and the gateway re-reads.
        - A create of a path already homed on a *different* MDS conflicts
          (never mint a second home); a delete routed to the wrong MDS
          conflicts likewise.
        - A delete of an absent path is an applied no-op (the requested
          final state already holds).
        - An unknown op, a create without a record, or a create whose
          record names another path raises :class:`ValueError` before any
          mutation of the batch applies (:func:`check_mutations`).

        At-most-once: gateway versions are globally sequenced but each
        home receives only a gappy subsequence, so dedup is **exact** —
        a ``(origin, version)`` pair is a duplicate iff the version is
        at or below the origin's cumulative-ack floor (settled
        client-side, never retried) or present in the per-origin outcome
        cache.  Duplicates are **replayed** from the cached outcome as
        ``changed=False``, not re-applied.  ``acked_version`` advances the
        floor and prunes the cache beneath it.  The loop is the server's
        (:meth:`MetadataServer.apply_mutations`, which the prototype node
        runs too); this method hands it the arbitration.

        ``degraded`` (target silenced/unknown) means nothing was applied;
        the caller may retry the identical batch.
        """
        if not mutations:
            raise ValueError("apply_mutation_batch requires at least one mutation")
        result = BatchMutateResult(server_id=server_id)
        server = self._batch_target(result)
        if server is None:
            return result
        outcomes, latency = server.apply_mutations(
            origin,
            acked_version,
            mutations,
            result.latency_ms,
            partial(self._apply_one_mutation, server_id),
        )
        # A settled version is acked without detail: it reports the
        # path's live version.
        live = self._path_versions.get
        acks = [{"new_version": live(o["path"], 0), **o} for o in outcomes]
        result.outcomes = [MutationOutcome(**ack) for ack in acks]
        return self._batch_served(
            result,
            latency,
            "ghba_batch_mutations_total",
            "Write-back mutation batches applied, by server.",
        )

    def _apply_one_mutation(
        self, server_id: int, mutation: PathMutation
    ) -> Dict[str, object]:
        """Arbitrate and apply one mutation; returns its outcome as the
        dict of a :class:`MutationOutcome`'s fields, in declaration order
        (what a checkpoint writes).

        A mutation conflicts when its base lost the race or the path is
        homed on a *different* MDS (never mint a second home; a delete
        routed to the wrong MDS clobbers nothing).  Otherwise it applies;
        it changes state unless it deletes a path that is already absent.
        """
        path = mutation.path
        current = self._path_versions.get(path, 0)
        existing_home = self.home_of(path)
        lost_race = (
            mutation.base_version is not None
            and mutation.base_version != current
        )
        applied = not lost_race and existing_home in (None, server_id)
        changed = applied and (
            mutation.op == "create" or existing_home is not None
        )
        new_version = current
        if changed:
            # Counted before the commit notifies: a listener reading the
            # counter sees this mutation included.
            self.servers[server_id].writeback_applied += 1
            if mutation.op == "create":
                new_version = self._commit_create(server_id, mutation.record)
            else:
                new_version = self._commit_delete(server_id, path)
        if self.tracer.enabled and mutation.trace is not None:
            trace_id, parent_id, trace_origin = mutation.trace
            span = self.tracer.start_span(
                path,
                trace_origin,
                trace_id=trace_id,
                parent_id=parent_id,
                component="mds",
                kind="wb_arbitrate",
            )
            span.event(
                "wb_arbitrate",
                target=server_id,
                op=mutation.op,
                applied=applied,
                conflict=not applied,
                changed=changed,
                new_version=new_version,
            )
            span.finish(
                "WB-APPLIED" if applied else "WB-CONFLICT", server_id, 0.0, 0
            )
        return {
            "version": mutation.version,
            "op": mutation.op,
            "path": path,
            "applied": applied,
            "conflict": not applied,
            "changed": changed,
            "deduped": False,
            "new_version": new_version,
        }

    def _share_lru_hint(self, origin_id: int, path: str, home: int) -> int:
        """Cooperative caching (Section 7 extension): push the resolved
        mapping to a few group peers, warming their L1 arrays.

        Returns the number of one-way hint messages sent.
        """
        group = self.group_of(origin_id)
        peers = [
            member_id
            for member_id in group.member_ids()
            if member_id != origin_id
        ]
        if not peers:
            return 0
        fanout = min(self.config.cooperative_fanout, len(peers))
        chosen = self._rng.sample(peers, fanout)
        for peer_id in chosen:
            self.servers[peer_id].record_lru(path, home)
        return fanout

    # ------------------------------------------------------------------
    # Replica synchronization (Sections 2.4, 3.4)
    # ------------------------------------------------------------------
    def synchronize_replicas(self, force: bool = False) -> SyncReport:
        """Ship fresh replicas for every server whose filter drifted.

        A server re-publishes when its live filter differs from the last
        published snapshot by more than ``config.update_threshold_bits``
        (or always, with ``force=True``).  The fresh replica goes to one
        MDS per *other* group, located via that group's IDBFA.  Only the
        servers whose filter changed since they last published
        (``index.dirty``) are compared, in ascending id order.
        """
        report = SyncReport()
        threshold = self.config.update_threshold_bits
        servers = self.servers
        if force:
            candidates = servers.values()
        else:
            candidates = [servers[sid] for sid in sorted(self.index.dirty)]
        for server in candidates:
            if not force and not needs_update(
                server.local_filter, server.published_filter, threshold
            ):
                continue
            payload = transfer_cost_report(self._ship_filter(server, report))
            copies = self.num_groups - 1  # one to each other group
            report.bytes_raw += copies * payload.raw_bytes
            report.bytes_compressed += copies * payload.compressed_bytes
        return report

    def update_server_replicas(self, server_id: int) -> SyncReport:
        """Force-update the replicas of one server (Figure 12's operation)."""
        report = SyncReport()
        self._ship_filter(self.servers[server_id], report)
        return report

    def _ship_filter(self, server: MetadataServer, report: SyncReport):
        """Publish ``server``'s filter and replace its replica in every
        other group, accounting into ``report``; returns what was shipped."""
        replica_template = server.publish_filter()
        report.servers_updated += 1
        own_group = self._group_of[server.server_id]
        for group in self.groups.values():
            if group.group_id == own_group:
                continue
            messages, false_candidates = group.update_replica(
                server.server_id, replica_template.copy()
            )
            report.groups_contacted += 1
            report.messages += messages
            report.false_candidates += false_candidates
        # One multicast round to all groups, performed concurrently.
        report.latency_ms += self.net.multicast_ms(
            max(0, self.num_groups - 1)
        )
        return replica_template

    # ------------------------------------------------------------------
    # Reconfiguration (Sections 3.1-3.2) and failure handling (4.5)
    # ------------------------------------------------------------------
    def _carry_out(
        self, plan: reconfiguration.Plan, server_id: int
    ) -> ReconfigReport:
        """Apply ``plan`` to the groups and report its model cost: members
        that change group leave the old one first, each step runs on the
        hosts it names — a member arrives in its new group with the first
        step that names it a host there, so what the group did about its
        replica before (fetch it, drop it) happened to an outsider's — then
        emptied groups and stale IDBFA rows go; the plan's directory is
        the fleet's from then on."""
        after = plan.directory
        while self._next_group_id < after.next_group_id:
            self._new_group()
        now_in = {m: gid for gid, members in after.groups.items() for m in members}
        leaving = [
            (m, gid) for m, gid in self._group_of.items() if now_in.get(m) != gid
        ]
        for member, was in leaving:
            self.groups[was].abandon_member(member)
            del self._group_of[member]
        arriving = {m: gid for m, gid in now_in.items() if m not in self._group_of}

        def arrive(member: int) -> None:
            gid = self._group_of[member] = arriving.pop(member)
            self.groups[gid].idbfa.add_member(member)
            self.groups[gid].adopt_member(self.servers[member])

        servers = self.servers
        for step in plan.steps:
            group = self.groups[step.group]
            hosts = (step.dst, None if step.kind == reconfiguration.FETCH else step.src)
            for host in hosts:
                if arriving.get(host) == step.group:
                    arrive(host)
            if step.kind == reconfiguration.MOVE:
                group.move_replica(step.home, servers[step.src], servers[step.dst])
            elif step.kind == reconfiguration.FETCH:
                replica = servers[step.home].published_filter.copy()
                group.install_replica(step.home, replica, servers[step.dst])
            elif step.kind == reconfiguration.DROP:
                group.remove_replica(step.home, servers[step.src])
        for member in list(arriving):  # those no step named
            arrive(member)
        for member, was in leaving:
            if was in after.groups:
                self.groups[was].idbfa.remove_member(member)
        for gid in self.groups.keys() - after.groups.keys():
            del self.groups[gid]
        self.directory = after
        cost = plan.cost()
        return ReconfigReport(
            server_id=server_id,
            migrated_replicas=cost.migrated,
            messages=cost.model,
            split=plan.new_group_id is not None,
            merged=plan.merged,
            new_group_id=plan.new_group_id,
        )

    def add_server(self) -> ReconfigReport:
        """Add one MDS (Section 3.1), splitting a group if needed (3.2)."""
        server_id = self._new_server().server_id
        plan = reconfiguration.join(
            self.directory, server_id, self.config.max_group_size
        )
        return self._carry_out(plan, server_id)

    def remove_server(self, server_id: int, rehome: bool = True) -> ReconfigReport:
        """Gracefully remove an MDS (Section 3.1's departure procedure);
        its metadata is re-homed so files stay reachable."""
        return self._depart(server_id, crashed=False, rehome=rehome)

    def fail_server(self, server_id: int) -> ReconfigReport:
        """Crash-remove an MDS: its metadata is lost, filters are excised.

        The service remains functional at degraded coverage — lookups for
        files homed on the failed MDS resolve to NEGATIVE instead of
        misrouting, because every replica of its filter is removed.
        The failed server's *hosted* replicas are re-fetched from their
        home servers' published filters to restore the group mirror.
        """
        return self._depart(server_id, crashed=True, rehome=False)

    def _depart(self, server_id: int, crashed: bool, rehome: bool) -> ReconfigReport:
        """What every departure, graceful or crash, does: carry out the
        plan, drop the server from the indexes, re-home its records
        round-robin (``rehome``) or keep them for :meth:`recover_server`
        (``crashed``: they survive on its disk), drop the L1 entries naming
        it, tell the listeners."""
        if server_id not in self.servers:
            raise KeyError(f"unknown server {server_id}")
        if self.num_servers == 1:
            verb = "fail" if crashed else "remove"
            raise GroupError(f"cannot {verb} the last server of the cluster")
        planner = reconfiguration.fail if crashed else reconfiguration.leave
        plan = planner(self.directory, server_id, self.config.max_group_size)
        report = self._carry_out(plan, server_id)
        departed = self.servers.pop(server_id)
        self.index.leave(departed)
        departed.lru.leave_holders()
        records = list(departed.store.records())
        self._sorted_ids.remove(server_id)
        if crashed:
            self._crashed_stores[server_id] = records
        elif rehome:
            target_ids = sorted(self.servers)
            for index, meta in enumerate(records):
                target = self.servers[target_ids[index % len(target_ids)]]
                target.insert_metadata(meta)
            report.messages += len(records)
        for remaining in self.servers.values():
            remaining.lru.invalidate_home(server_id)
        if self._mutation_listeners:
            self._notify(
                MutationEvent(op="server_removed", home_id=server_id)
            )
        return report

    def recover_server(self, server_id: int) -> ReconfigReport:
        """Restore a crashed MDS from its on-disk metadata (Table 1).

        The recovering server rejoins the cluster through the ordinary join
        machinery (so groups stay balanced and replicated) and then reloads
        the metadata it held at crash time from its disk; a forced filter
        publication makes its files routable again.
        """
        records = self._crashed_stores.pop(server_id, None)
        if records is None:
            raise KeyError(f"server {server_id} has no crashed state to recover")
        report = self.add_server()
        recovered = self.servers[report.server_id]
        recovered.insert_many(records)
        # Re-publish to every other group so the recovered files route.
        sync = self.update_server_replicas(report.server_id)
        report.messages += sync.messages
        return report

    def crashed_server_ids(self) -> List[int]:
        """Servers whose on-disk state awaits recovery."""
        return sorted(self._crashed_stores)

    # ------------------------------------------------------------------
    # Invariants & accounting
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert every structural invariant; raises GroupError on violation."""
        directory = self.directory
        try:  # sizes, one group per MDS, full mirrors, imbalance <= 1
            directory.check(self.config.max_group_size)
            directory.check_hosts(
                {sid: server.hosted_replicas() for sid, server in self.servers.items()}
            )
        except AssertionError as error:
            raise GroupError(str(error)) from None
        # ... and the groups are the directory's, in order.
        groups = [
            (gid, group.member_ids(), list(group.idbfa.placements().items()))
            for gid, group in self.groups.items()
        ]
        if groups != [
            (gid, members, list(directory.placements[gid].items()))
            for gid, members in directory.groups.items()
        ]:
            raise GroupError(f"groups out of step with the directory: {groups}")
        grouped = {m: gid for gid, members in directory.groups.items() for m in members}
        if grouped != self._group_of:
            raise GroupError(f"group index out of sync: {self._group_of}")
        holders: Dict[str, int] = {}
        for server_id, server in self.servers.items():
            stored = sum(meta.size_bytes() for meta in server.store.records())
            if server._metadata_bytes != stored:
                raise GroupError(
                    f"MDS {server_id} accounts {server._metadata_bytes} "
                    f"metadata bytes, its store holds {stored}"
                )
            # home_of asks only the stores whose LOCAL bits name a path.
            for path in server.store.paths():
                if server_id not in self.index.holders(path):
                    raise GroupError(
                        f"MDS {server_id} stores {path!r}, its filter lacks it"
                    )
            for path in server.lru._entries:
                holders[path] = holders.get(path, 0) | 1 << server_id
        if holders != self.l1_holders:
            wrong = sorted(
                path for path in holders.keys() | self.l1_holders.keys()
                if holders.get(path) != self.l1_holders.get(path)
            )
            raise GroupError(f"L1 holder map differs from the L1 arrays at {wrong[:5]}")

    def replicas_per_server(self) -> Dict[int, int]:
        """theta of every server — Table 5's memory driver."""
        return {sid: server.theta for sid, server in self.servers.items()}

    def memory_bytes_per_server(self) -> Dict[int, int]:
        """Total Bloom-structure bytes per server."""
        return {
            sid: server.segment.size_bytes()
            + server.local_filter.size_bytes()
            + server.lru.size_bytes()
            for sid, server in self.servers.items()
        }

    def level_fractions(self) -> Dict[str, float]:
        """Fraction of queries served per level (Figure 13)."""
        return self.level_counter.fractions()

    def refresh_gauges(self) -> None:
        """Refresh point-in-time gauges from live cluster state.

        Counters update on the hot path; gauges (file counts, replica
        loads, stale-bit backlog, structure sizes) are derived state and
        only refreshed when an exporter or report is about to read them.
        """
        m = self.metrics
        m.gauge("ghba_servers", "Metadata servers in the cluster.").set(
            self.num_servers
        )
        m.gauge("ghba_groups", "Groups in the cluster.").set(self.num_groups)
        files = m.gauge(
            "ghba_server_files", "Files homed per server.", labels=("server",)
        )
        theta = m.gauge(
            "ghba_server_theta",
            "Replicas hosted per server (the paper's theta).",
            labels=("server",),
        )
        stale = m.gauge(
            "ghba_server_stale_bits",
            "Stale filter bits awaiting replication, per server.",
            labels=("server",),
        )
        live = [(sid,) for sid in self.servers]
        for gauge in (files, theta, stale):
            gauge.retain(live)
        for sid, server in self.servers.items():
            files.labels(sid).set(server.file_count)
            theta.labels(sid).set(server.theta)
            stale.labels(sid).set(server.staleness_bits())
        size = m.gauge(
            "ghba_group_size", "Members per group.", labels=("group",)
        )
        size.retain((gid,) for gid in self.groups)
        for gid, group in self.groups.items():
            size.labels(gid).set(group.size)

    def __repr__(self) -> str:
        return (
            f"GHBACluster(servers={self.num_servers}, groups={self.num_groups}, "
            f"M={self.config.max_group_size})"
        )
