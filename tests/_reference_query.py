"""Frozen reference: ``GHBACluster.query`` as it stood before ISSUE 21 moved
the L1 -> L4 decision sequence into ``repro.core.walk``.

``ReferenceQueryCluster.query`` is the parent commit's method body,
verbatim — the inline walk with its ``hop`` / ``finish`` / ``verify_at`` /
``forward_and_verify`` closures, every latency term in its original
addition order, every lazily pinned counter child, every span event.  It
sits on a subclass, so everything it reaches through ``self`` (servers,
groups, the fault injector, the metric families, ``_share_lru_hint``) is
the live class's.  The exception is the lazily pinned child caches: the
live class dropped them when ``MetricFamily.labels()`` began to memoise,
so the subclass sets them up itself, as they were.
``tests/property/test_query_differential.py`` drives it and the live
class through seeded scripts and compares every ``QueryResult`` field,
the metrics dump, every span event and each origin's L1 contents with
``==`` — so do not "fix" or modernize this file; it is the oracle, like
``_reference_reconfig.py``.  A deliberate change to the simulator's walk
(ROADMAP item 4's "do not forward twice to an MDS that just said no")
re-freezes it once and says so.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.cluster import GHBACluster
from repro.core.query import QueryLevel, QueryResult
from repro.core.server import MetadataServer
from repro.metadata.attributes import FileMetadata


class ReferenceQueryCluster(GHBACluster):
    """The live cluster with the pre-walk ``query``."""

    def _register_metrics(self, seed: int) -> None:
        # The live class dropped its child caches once
        # ``MetricFamily.labels()`` memoised; the frozen body below still
        # reads them, so they are set up here exactly as the live class
        # set them up then.
        super()._register_metrics(seed)
        self._messages_child = None
        self._false_forwards_child = None
        self._degraded_child = None
        self._level_children = {}
        self._origin_children = {}
        self._served_children = {}
        self._forward_children = {}
        self._false_children = {}
        self._group_served_children = {}
        self._group_multicast_children = {}

    def query(
        self,
        path: str,
        origin_id: Optional[int] = None,
        outstanding: int = 0,
    ) -> QueryResult:
        """Resolve the home MDS of ``path`` through the L1-L4 hierarchy.

        Parameters
        ----------
        path:
            Pathname to look up.
        origin_id:
            MDS receiving the client request (random when omitted —
            "each request can randomly choose an MDS", Section 4).
        outstanding:
            Concurrent requests in flight at the involved servers; adds
            queueing delay per remote hop (drives latency growth with
            operation intensity).
        """
        net = self.config.network
        if origin_id is None:
            origin_id = self._rng.choice(self._sorted_ids)
        origin = self.servers[origin_id]
        # Span events cost kwargs construction even against the null span,
        # so every hop() call site is guarded: with tracing off the walk
        # emits nothing at all (the zero-overhead discipline).
        traced = self.tracer.enabled
        span = self.tracer.start_span(path, origin_id) if traced else None
        # The elementary costs are pure functions of fixed inputs, so one
        # evaluation serves every charge site bit-identically.
        mpm = net.memory_probe_ms
        q_ms = 0.0
        rtt = net.round_trip_ms()
        latency = q_ms
        checkpoint = 0.0  # latency already attributed to a span event
        messages = 0
        false_forwards = 0
        degraded = False
        faults = self.faults

        def hop(kind: str, target: Optional[int] = None, msg: int = 0, **detail) -> None:
            """Emit a span event covering the latency since the last hop."""
            nonlocal checkpoint
            span.event(
                kind,
                target=target,
                latency_ms=latency - checkpoint,
                messages=msg,
                **detail,
            )
            checkpoint = latency

        def finish(level: QueryLevel, home: Optional[int]) -> QueryResult:
            nonlocal messages
            if home is not None:
                origin.record_lru(path, home)
                if self.config.cooperative_fanout:
                    hints = self._share_lru_hint(origin_id, path, home)
                    if hints:
                        messages += hints
                        self._lru_hints.inc(hints)
                        if traced:
                            hop("lru_hint", msg=hints)
            result = QueryResult(
                path=path,
                home_id=home,
                level=level,
                latency_ms=latency,
                messages=messages,
                false_forwards=false_forwards,
                origin_id=origin_id,
                degraded=degraded,
            )
            if degraded:
                child = self._degraded_child
                if child is None:
                    child = self._degraded_queries.labels()
                    self._degraded_child = child
                child.inc()
            child = self._level_children.get(level)
            if child is None:
                child = self._queries_by_level.labels(level.label)
                self._level_children[level] = child
            child.inc()
            self._latency_child.observe(latency)
            if messages:
                child = self._messages_child
                if child is None:
                    child = self._messages.labels()
                    self._messages_child = child
                child.inc(messages)
            if false_forwards:
                child = self._false_forwards_child
                if child is None:
                    child = self._false_forwards_counter.labels()
                    self._false_forwards_child = child
                child.inc(false_forwards)
            child = self._origin_children.get(origin_id)
            if child is None:
                child = self._server_origin.labels(origin_id)
                self._origin_children[origin_id] = child
            child.inc()
            if home is not None:
                child = self._served_children.get(home)
                if child is None:
                    child = self._server_served.labels(home)
                    self._served_children[home] = child
                child.inc()
                group_id = self._group_of[home]
                child = self._group_served_children.get(group_id)
                if child is None:
                    child = self._group_served.labels(group_id)
                    self._group_served_children[group_id] = child
                child.inc()
            if traced:
                span.finish(
                    level.label, home, latency, messages, false_forwards
                )
            return result

        def verify_at(server: MetadataServer) -> Optional[FileMetadata]:
            """Home-MDS verification: filter probe, then store access."""
            nonlocal latency
            latency += mpm
            local = server.local_filter
            mask = local._hashes.mask(path)
            if (local._bits & mask) != mask:
                return None
            latency += server.fetch_penalty_cached(net)
            return server.store.get(path)

        def forward_and_verify(target_id: int) -> Optional[FileMetadata]:
            """Send the query to ``target_id`` and verify there."""
            nonlocal latency, messages, degraded
            if faults.enabled and target_id != origin_id:
                reachable, _ = faults.filter_targets(origin_id, (target_id,))
                if not reachable:
                    # The forward times out: one request on the wire, no
                    # reply; the query degrades to the next level.
                    latency += rtt + q_ms
                    messages += 1
                    degraded = True
                    if traced:
                        hop("forward_timeout", target=target_id)
                    return None
            child = self._forward_children.get(target_id)
            if child is None:
                child = self._server_forwards.labels(target_id)
                self._forward_children[target_id] = child
            child.inc()
            if target_id != origin_id:
                latency += rtt + q_ms
                messages += 2
                if traced:
                    hop("forward", target=target_id, msg=2)
            meta = verify_at(self.servers[target_id])
            if traced:
                hop("verify", target=target_id, found=meta is not None)
            if meta is None:
                child = self._false_children.get(target_id)
                if child is None:
                    child = self._server_false.labels(target_id)
                    self._false_children[target_id] = child
                child.inc()
                if traced:
                    hop("false_forward", target=target_id)
            return meta

        # ---- L1: local LRU Bloom filter array -------------------------
        latency += mpm * max(1, len(origin.lru._filters))
        l1 = origin.probe_lru(path)
        if traced:
            hop("l1_probe", target=origin_id, hits=len(l1.hits))
        if len(l1.hits) == 1:
            l1_hit = l1.hits[0]
            meta = forward_and_verify(l1_hit)
            if meta is not None:
                return finish(QueryLevel.L1, l1_hit)
            false_forwards += 1
            origin.lru.invalidate(path)

        # ---- L2: local segment Bloom filter array ----------------------
        latency += origin.probe_cost_cached(net)
        latency += mpm  # own local filter
        l2 = origin.probe_segment(path)
        if traced:
            hop("l2_probe", target=origin_id, hits=len(l2.hits))
        if len(l2.hits) == 1:
            l2_hit = l2.hits[0]
            meta = forward_and_verify(l2_hit)
            if meta is not None:
                return finish(QueryLevel.L2, l2_hit)
            false_forwards += 1

        # ---- L3: multicast within the group ----------------------------
        group = self.group_of(origin_id)
        # A group of one (M = 1, which is HBA, or N = 1) has no peers to
        # ask: L2 already probed everything the "group" holds.
        if group.size > 1:
            latency += net.group_multicast_ms(group.size) + q_ms
            if faults.enabled:
                peers, lost_peers = faults.filter_targets(
                    origin_id, [m for m in group.member_ids() if m != origin_id]
                )
                # Requests go to every peer; only the reachable ones reply.
                messages += (group.size - 1) + len(peers)
                if lost_peers:
                    degraded = True
                    latency += rtt  # waited out the silent members
                num_reached = len(peers)
            else:
                # Fault-free fast path: every peer is reached, so the reply
                # count mirrors the request count and the fused full-group
                # probe plan applies without a reachability restriction.
                peers = None
                lost_peers = ()
                messages += 2 * (group.size - 1)
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
                latency += worst_cost + mpm
            if peers is None:
                l3 = group.multicast_query(path)
            else:
                l3 = group.multicast_query(path, member_ids=[origin_id] + peers)
            child = self._group_multicast_children.get(group.group_id)
            if child is None:
                child = self._group_multicasts.labels(group.group_id)
                self._group_multicast_children[group.group_id] = child
            child.inc()
            if traced:
                l3_detail = {"lost": len(lost_peers)} if lost_peers else {}
                hop(
                    "group_multicast",
                    target=group.group_id,
                    msg=(group.size - 1) + num_reached,
                    hits=len(l3.hits),
                    **l3_detail,
                )
            if len(l3.hits) == 1:
                l3_hit = l3.hits[0]
                meta = forward_and_verify(l3_hit)
                if meta is not None:
                    return finish(QueryLevel.L3, l3_hit)
                false_forwards += 1

        # ---- L4: global multicast ---------------------------------------
        others = [sid for sid in self.servers if sid != origin_id]
        lost_nodes: List[int] = []
        if faults.enabled and others:
            others, lost_nodes = faults.filter_targets(origin_id, others)
        latency += net.global_multicast_ms(self.num_servers)
        latency += q_ms
        # Requests go to every other MDS; only the reachable ones reply.
        messages += (self.num_servers - 1) + len(others)
        if lost_nodes:
            degraded = True
            latency += rtt  # waited out the silent nodes
        # Every reached MDS checks its local filter (memory); positive ones
        # verify against their store.  All run concurrently: charge the
        # slowest.
        verify_costs = [mpm]
        found_home: Optional[int] = None
        for server_id in [origin_id] + others:
            server = self.servers[server_id]
            if not server.local_filter.query(path):
                continue
            meta_fraction = server.resident_fraction
            verify_costs.append(
                net.memory_probe_ms
                + meta_fraction * net.memory_record_ms
                + (1.0 - meta_fraction) * net.disk_access_ms
            )
            if server.store.get(path) is not None:
                found_home = server.server_id
        latency += max(verify_costs)
        if traced:
            l4_detail = {"lost": len(lost_nodes)} if lost_nodes else {}
            hop(
                "global_multicast",
                msg=(self.num_servers - 1) + len(others),
                found=found_home is not None,
                **l4_detail,
            )
        if found_home is not None:
            return finish(QueryLevel.L4, found_home)
        return finish(QueryLevel.NEGATIVE, None)
