"""The gateway facade: admission → cache → coalescer → cluster.

:class:`MetadataClient` fronts an MDS fleet for a pool of clients, and
touches it only through :class:`~repro.gateway.backend.MetadataBackend`
(today a :class:`~repro.core.cluster.GHBACluster`).  Requests are served
in *ticks* — all lookups submitted at one virtual instant are admitted,
coalesced, batched and resolved together, which is the
deterministic-simulation model of concurrency used throughout this repo.

Pipeline per tick (:meth:`MetadataClient.lookup_many`):

1. **Admission** — the token bucket admits what the provisioned rate
   allows; overflow queues (bounded, with a deadline) and the rest sheds
   with an explicit ``REJECTED`` outcome.
2. **Cache** — fresh leases answer immediately (positive or negative);
   expired entries contribute a *predicted home* for step 4.
3. **Coalescing** — same-tick duplicates collapse into one flight whose
   answer fans out to every waiter (``COALESCED``).
4. **Batching** — distinct misses predicted onto the same home MDS are
   re-validated with one multi-key ``verify_batch`` round trip
   (``BATCHED``); failures fall through to step 5.
5. **Backend query** — whatever remains walks the full L1-L4 hierarchy
   (``SERVED``).

Coherence: mutations on the backing cluster (whether issued through this
client or directly) invalidate affected leases via the cluster's mutation
hooks — including whole subtrees on rename.  Degraded answers (fault
injection lost multicast legs) are returned to the caller but **never
cached**, so a partition cannot poison the gateway.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cluster import MutationEvent, MutationOutcome
from repro.core.query import QueryResult
from repro.gateway.admission import (
    DEFAULT_TENANT,
    FairAdmissionController,
    TickResult,
)
from repro.gateway.backend import MetadataBackend
from repro.gateway.cache import GatewayCache
from repro.gateway.coalesce import HomeBatcher, coalesce
from repro.gateway.hotspot import HeavyHitter, HotspotDetector
from repro.gateway.writeback import (
    AckListener,
    FlushReport,
    MutationBuffer,
    PendingMutation,
)
from repro.metadata.attributes import FileMetadata
from repro.obs.flight import NULL_RECORDER, FlightRecorderHub
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Span, Tracer


class Outcome(enum.Enum):
    """How the gateway disposed of one request."""

    HIT = "hit"                    # fresh positive lease
    NEGATIVE_HIT = "negative_hit"  # fresh negative lease
    BATCHED = "batched"            # re-validated via multi-key verify
    SERVED = "served"              # full backend L1-L4 walk
    COALESCED = "coalesced"        # piggybacked on a same-tick flight
    QUEUED = "queued"              # parked by admission; completes later
    REJECTED = "rejected"          # shed by admission control
    OVERLAY = "overlay"            # answered by a pending write-back entry
    BUFFERED = "buffered"          # mutation parked in the write-back buffer

    @property
    def is_answer(self) -> bool:
        return self not in (Outcome.REJECTED, Outcome.QUEUED)


@dataclass(frozen=True)
class GatewayResponse:
    """One completed (or shed) gateway request.

    ``from_cache`` is True when the answer was served from a lease without
    consulting the fleet this tick — exactly the responses the stale-read
    audit in the benchmark re-checks against the live cluster.
    """

    path: str
    outcome: Outcome
    home_id: Optional[int] = None
    record: Optional[FileMetadata] = None
    latency_ms: float = 0.0
    degraded: bool = False
    from_cache: bool = False
    #: True when the answer came from the client's own unflushed
    #: write-back buffer (read-your-writes): definitionally *ahead* of
    #: the fleet, so the stale-read audit must not compare it against
    #: live backend state the way it re-checks ``from_cache`` answers.
    from_overlay: bool = False
    #: The tenant this request was submitted under (admission quota key).
    tenant: str = DEFAULT_TENANT

    @property
    def found(self) -> bool:
        return self.home_id is not None


#: Counters of the hotspot detector's space-saving sketch.
HOTSPOT_CAPACITY = 64
#: Width of the hotspot detector's rotating window (virtual seconds).
HOTSPOT_WINDOW_S = 5.0
#: Client-side cost model: a lease answer costs one local memory probe
#: equivalent; it never touches the network.
CACHE_HIT_LATENCY_MS = 0.001
#: Admission queue: requests parked beyond the token budget, and how long
#: each may wait for a token before it sheds (virtual seconds).
QUEUE_CAPACITY = 128
QUEUE_DEADLINE_S = 0.5
#: Keys per multi-key ``verify_batch`` round trip.
MAX_BATCH = 16
#: Attempts per write-back flush before the batch is re-parked (at a
#: barrier: declared lost); then that home is left alone this long
#: (virtual seconds), so an outage does not re-burn the retry budget on
#: every enqueue or lookup.  Barriers ignore the backoff.
FLUSH_RETRY_LIMIT = 3
FLUSH_RETRY_BACKOFF_S = 0.5


@dataclass(frozen=True)
class GatewayConfig:
    """Tunables of the gateway tier (all times in virtual seconds)."""

    cache_capacity: int = 4096
    lease_ttl_s: float = 5.0
    negative_ttl_s: float = 0.5
    hot_lease_ttl_s: float = 30.0
    # Admission control
    rate_per_s: float = 2000.0
    burst: float = 200.0
    #: ``"fair"`` (default) shares the rate across tenants by weighted
    #: max-min; ``"global"`` is the legacy single-FIFO tenant-blind
    #: bucket — kept so the isolation harness can show it failing.
    #: With one tenant the two modes are bit-identical.
    admission_mode: str = "fair"
    # Hotspot detection
    hot_threshold: int = 32
    # Write-back mutation buffering (DESIGN.md §11).  Off by default:
    # mutations stay synchronous write-through, bit-identical to PR 3.
    writeback: bool = False
    #: Flush a home's bucket once it holds this many pending mutations.
    flush_max_pending: int = 16
    #: ... or once its oldest pending mutation is this old (virtual s).
    flush_age_s: float = 0.25
    #: Seed of the gateway-local RNG that places buffered creates with
    #: no home hint; separate from the cluster's RNG so buffering does
    #: not perturb backend query streams.
    writeback_seed: int = 0
    #: Origin ID in the at-most-once dedup key (cohort members pass
    #: their member ID).
    writeback_origin: int = 0

    def __post_init__(self) -> None:
        if self.cache_capacity < 1:
            raise ValueError(
                f"cache_capacity must be >= 1, got {self.cache_capacity}"
            )
        if self.admission_mode not in ("fair", "global"):
            raise ValueError(
                "admission_mode must be 'fair' or 'global', "
                f"got {self.admission_mode!r}"
            )
        if self.writeback:
            if self.flush_max_pending < 1:
                raise ValueError(
                    f"flush_max_pending must be >= 1, got {self.flush_max_pending}"
                )
            if self.flush_age_s <= 0:
                raise ValueError(
                    f"flush_age_s must be positive, got {self.flush_age_s}"
                )


class MetadataClient:
    """Client-facing metadata gateway over a :class:`MetadataBackend`.

    Parameters
    ----------
    cluster:
        The backing MDS fleet.  The client registers a mutation listener
        so *any* namespace mutation — through this facade or directly on
        the cluster — invalidates affected leases.
    config:
        Gateway tunables; defaults are sized for tests.
    tracer:
        Optional tracer; gateway spans use ``gw_*`` event kinds and
        ``GW-<outcome>`` levels.  Defaults to the shared no-op tracer.
    metrics:
        Metrics registry; defaults to the cluster's own, so one exporter
        sees fleet and gateway series side by side.
    register_mutation_hook:
        When True (the default) the client registers a listener on the
        cluster so every mutation — through any client — invalidates its
        leases instantly.  A *distributed* gateway (one of several
        processes fronting the fleet) cannot have that oracle: the cohort
        tier (:mod:`repro.gateway.cohort`) passes False and routes
        invalidations explicitly through :meth:`apply_mutation`, locally
        for its own mutations and via the invalidation multicast for its
        peers'.
    """

    def __init__(
        self,
        cluster: MetadataBackend,
        config: Optional[GatewayConfig] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        register_mutation_hook: bool = True,
        flight: Optional[FlightRecorderHub] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config or GatewayConfig()
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else cluster.metrics
        self._flight = (
            flight.recorder(f"gateway-{self.config.writeback_origin}")
            if flight is not None
            else NULL_RECORDER
        )
        cfg = self.config
        self.cache = GatewayCache(
            capacity=cfg.cache_capacity,
            lease_ttl_s=cfg.lease_ttl_s,
            negative_ttl_s=cfg.negative_ttl_s,
            hot_lease_ttl_s=cfg.hot_lease_ttl_s,
        )
        self.admission: FairAdmissionController[str] = FairAdmissionController(
            rate_per_s=cfg.rate_per_s,
            burst=cfg.burst,
            queue_capacity=QUEUE_CAPACITY,
            queue_deadline_s=QUEUE_DEADLINE_S,
            per_tenant=cfg.admission_mode == "fair",
        )
        self.batcher = HomeBatcher(max_batch=MAX_BATCH)
        self.hotspots = HotspotDetector(
            capacity=HOTSPOT_CAPACITY,
            window_s=HOTSPOT_WINDOW_S,
            hot_threshold=cfg.hot_threshold,
        )
        self.backend_queries = 0  # full walks + batch round trips
        #: Mutation-path RPCs to the fleet: write-through mutations, flush
        #: batches (and their retries), renames, conflict re-reads and
        #: delete-routing resolutions — the figure the write-back scenario
        #: compares across modes.
        self.backend_mutations = 0
        #: The write-back tier (None in write-through mode).
        self.writeback: Optional[MutationBuffer] = (
            MutationBuffer() if cfg.writeback else None
        )
        self._wb_rng = random.Random(cfg.writeback_seed)
        self._wb_created = 0
        self._wb_backoff: Dict[int, float] = {}
        self._ack_listeners: List[AckListener] = []
        #: Mutations declared lost (explicitly — at a barrier or a rename
        #: partial barrier), for harness introspection.
        self.lost_mutations: List[PendingMutation] = []
        self._register_metrics()
        self.hooked = register_mutation_hook
        if register_mutation_hook:
            cluster.add_mutation_listener(self.apply_mutation)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _register_metrics(self) -> None:
        m = self.metrics
        self._requests = m.counter(
            "gateway_requests_total",
            "Requests submitted to the gateway, by operation and tenant.",
            labels=("op", "tenant"),
        )
        self._lookup_latency = m.histogram(
            "gateway_lookup_latency_ms",
            "End-to-end latency of answered gateway lookups, by tenant.",
            labels=("tenant",),
            buckets=(0.01, 0.1, 1.0, 10.0, 100.0),
        )
        self._cache_hits = m.counter(
            "gateway_cache_hits_total",
            "Lookups answered from a fresh lease, by kind.",
            labels=("kind",),
        )
        self._coalesced = m.counter(
            "gateway_coalesced_total",
            "Lookups that piggybacked on a same-tick flight.",
        )
        self._batched = m.counter(
            "gateway_batched_total",
            "Lookups re-validated via a multi-key batch verify.",
        )
        self._backend = m.counter(
            "gateway_backend_queries_total",
            "Requests the gateway sent to the MDS fleet, by kind.",
            labels=("kind",),
        )
        self._shed = m.counter(
            "gateway_shed_total",
            "Requests shed by admission control, by tenant and cause.",
            labels=("tenant", "cause"),
        )
        self._queued = m.counter(
            "gateway_queued_total",
            "Requests parked in the admission queue.",
        )
        self._invalidations = m.counter(
            "gateway_invalidations_total",
            "Cache leases invalidated, by cause.",
            labels=("cause",),
        )
        self._uncacheable = m.counter(
            "gateway_degraded_uncached_total",
            "Degraded backend answers returned but not cached.",
        )
        # Write-back family (registered unconditionally so determinism
        # snapshots see identical shapes in both modes; all stay zero in
        # write-through mode).
        self._wb = {
            "enqueued": m.counter(
                "gateway_writeback_enqueued_total",
                "Mutations parked in the write-back buffer, by op.",
                labels=("op",),
            ),
            "absorbed": m.counter(
                "gateway_writeback_absorbed_total",
                "Pending same-path mutations absorbed by a newer intent.",
            ),
            "overlay_hits": m.counter(
                "gateway_writeback_overlay_hits_total",
                "Lookups answered from the pending-mutation overlay.",
            ),
            "flush_batches": m.counter(
                "gateway_writeback_flush_batches_total",
                "MUTATE_BATCH flushes attempted (including retries).",
            ),
            "retries": m.counter(
                "gateway_writeback_retries_total",
                "Flush attempts that found the home unreachable.",
            ),
            "flushed": m.counter(
                "gateway_writeback_flushed_total",
                "Mutations acknowledged by their home MDS, by op and home.",
                labels=("op", "home"),
            ),
            "conflicts": m.counter(
                "gateway_writeback_conflict_total",
                "Flushed mutations that lost a version race (re-read, "
                "never clobbered).",
            ),
            "lost": m.counter(
                "gateway_writeback_lost_total",
                "Mutations declared lost at a flush barrier.",
            ),
            "deferred": m.counter(
                "gateway_writeback_deferred_total",
                "Mutations re-parked after an unreachable-home flush.",
            ),
            "barriers": m.counter(
                "gateway_writeback_barrier_total",
                "Explicit flush barriers executed.",
            ),
            "rename_barriers": m.counter(
                "gateway_writeback_rename_barrier_total",
                "Renames that forced a partial flush of overlapping "
                "pending mutations.",
            ),
            "rereads": m.counter(
                "gateway_writeback_reread_total",
                "Backend re-reads after a write-back conflict.",
            ),
            "passthrough": m.counter(
                "gateway_writeback_passthrough_total",
                "Mutations served write-through despite write-back mode, "
                "by op (unroutable deletes, renames).",
                labels=("op",),
            ),
        }

    def refresh_gauges(self) -> None:
        """Point-in-time gateway gauges (hit rate, occupancy, hot set)."""
        m = self.metrics
        m.gauge(
            "gateway_hit_rate", "Fresh-lease hit rate over all probes."
        ).set(self.cache.hit_rate())
        m.gauge(
            "gateway_cache_entries", "Leases currently cached."
        ).set(len(self.cache))
        m.gauge(
            "gateway_hot_paths", "Paths currently flagged hot."
        ).set(len(self.hotspots.hot_set()))
        m.gauge(
            "gateway_queue_depth", "Requests waiting in the admission queue."
        ).set(self.admission.queue_depth)
        m.gauge(
            "gateway_hot_threshold",
            "Current hotspot shield threshold.",
        ).set(self.hotspots.hot_threshold)

    # ------------------------------------------------------------------
    # Coherence: cluster mutation hooks
    # ------------------------------------------------------------------
    def apply_mutation(self, event: MutationEvent) -> None:
        """Invalidate the leases ``event`` affects (with exact metrics).

        Fired by the cluster's mutation hook when this client registered
        one, or called explicitly by the cohort tier when the event
        arrived over the invalidation multicast.
        """
        cache = self.cache
        before = cache.stats.invalidations.copy()
        if event.op == "rename":
            cache.invalidate_subtree(event.path, cause="rename")
            cache.invalidate_subtree(event.new_path, cause="rename")
        elif event.op in ("create", "delete"):
            cache.invalidate(event.path, cause=event.op)
        elif event.op == "server_removed":
            cache.invalidate_home(event.home_id, cause="server_lost")
        for cause, count in cache.stats.invalidations.items():
            delta = count - before.get(cause, 0)
            if delta:
                self._invalidations.labels(cause).inc(delta)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def lookup(
        self, path: str, now: float = 0.0, tenant: str = "-"
    ) -> GatewayResponse:
        """Resolve one path (a tick of size one); REJECTED when shed."""
        responses = self.lookup_many([path], now, tenant=tenant)
        for response in responses:
            if response.path == path:
                return response
        # The request was queued; it completes on a later tick (or sheds
        # with REJECTED once its deadline passes).
        return GatewayResponse(
            path=path, outcome=Outcome.QUEUED, tenant=tenant
        )

    def lookup_many(
        self, paths: Sequence[str], now: float = 0.0, tenant: str = "-"
    ) -> List[GatewayResponse]:
        """Resolve a tick of same-tenant lookups through the full pipeline.

        Returns completions for this tick: freshly admitted requests,
        queue drains whose token arrived, and explicit REJECTED responses
        for everything shed.  Queued requests are absent from the return
        and complete on a later tick.  ``tenant`` keys the admission
        quota (and dimensions the metric families); it never affects
        routing.  Multi-tenant ticks go through :meth:`lookup_tick`.
        """
        return self.lookup_tick([(tenant, path) for path in paths], now)

    def lookup_tick(
        self, items: Sequence[Tuple[str, str]], now: float = 0.0
    ) -> List[GatewayResponse]:
        """Resolve one tick of ``(tenant, path)`` lookups.

        All demands of one virtual instant must be submitted together —
        per-tenant fairness is decided *within* a tick, so feeding
        tenants through separate calls at the same ``now`` would hand
        the whole token budget to whoever called first.
        """
        if self.writeback is not None:
            self.maybe_flush(now)
        items = list(items)  # one snapshot: tallied here, then admitted
        counts: Dict[str, int] = {}
        for tenant, _ in items:
            counts[tenant] = counts.get(tenant, 0) + 1
        for tenant, count in counts.items():
            self._requests.labels("lookup", tenant).inc(count)
        before_queued = self.admission.stats.queued
        tick = self.admission.submit_tick(items, now)
        responses = self._serve_admitted(tick, before_queued, now)
        for response in responses:
            if response.outcome not in (Outcome.QUEUED, Outcome.REJECTED):
                self._lookup_latency.labels(response.tenant).observe(
                    response.latency_ms
                )
        return responses

    def _serve_admitted(
        self, tick: TickResult[str], before_queued: int, now: float
    ) -> List[GatewayResponse]:
        """What admission decided, carried out: REJECTED responses with
        exact shed/queued metric reconciliation, then the admitted
        requests through the serving pipeline."""
        queued_delta = self.admission.stats.queued - before_queued
        if queued_delta:
            self._queued.inc(queued_delta)
        responses: List[GatewayResponse] = []
        for tenant, path, cause in tick.shed:
            self._shed.labels(tenant, cause).inc()
            responses.append(
                GatewayResponse(
                    path=path, outcome=Outcome.REJECTED, tenant=tenant
                )
            )
        if tick.admitted:
            responses.extend(self._serve_tick(tick.admitted, now))
        return responses

    def pump(self, now: float) -> List[GatewayResponse]:
        """Advance the admission queue without submitting new work."""
        if self.writeback is not None:
            self.maybe_flush(now)
        before_queued = self.admission.stats.queued
        return self._serve_admitted(self.admission.pump(now), before_queued, now)

    # ------------------------------------------------------------------
    # The serving pipeline
    # ------------------------------------------------------------------
    def _serve_tick(
        self, admitted: List[Tuple[str, str]], now: float
    ) -> List[GatewayResponse]:
        tenants = [tenant for tenant, _ in admitted]
        paths = [path for _, path in admitted]
        for path in paths:
            self.hotspots.observe(path, now)
        # ---- cache ----------------------------------------------------
        answered: Dict[str, GatewayResponse] = {}
        predictions: List[Tuple[str, Optional[int]]] = []
        flight = coalesce(paths)
        #: Each flight answers under its first waiter's tenant, so the
        #: fan-out hands that waiter the response as built.
        owner = {
            path: tenants[indices[0]]
            for path, indices in flight.waiters.items()
        }
        hits = {"negative": 0, "positive": 0}
        for path in flight.leaders:
            # ---- write-back overlay: read-your-writes ----------------
            if self.writeback is not None:
                pending = self.writeback.get(path)
                if pending is not None:
                    self._wb["overlay_hits"].inc()
                    if pending.op == "create":
                        answered[path] = GatewayResponse(
                            path=path,
                            outcome=Outcome.OVERLAY,
                            home_id=pending.home_id,
                            record=pending.record,
                            latency_ms=CACHE_HIT_LATENCY_MS,
                            from_overlay=True,
                            tenant=owner[path],
                        )
                    else:  # pending delete: the path is (about to be) gone
                        answered[path] = GatewayResponse(
                            path=path,
                            outcome=Outcome.OVERLAY,
                            latency_ms=CACHE_HIT_LATENCY_MS,
                            from_overlay=True,
                            tenant=owner[path],
                        )
                    continue
            lookup = self.cache.get(path, now)
            if lookup.hit:
                if lookup.negative:
                    hits["negative"] += 1
                    answered[path] = GatewayResponse(
                        path=path,
                        outcome=Outcome.NEGATIVE_HIT,
                        latency_ms=CACHE_HIT_LATENCY_MS,
                        from_cache=True,
                        tenant=owner[path],
                    )
                else:
                    hits["positive"] += 1
                    answered[path] = GatewayResponse(
                        path=path,
                        outcome=Outcome.HIT,
                        home_id=lookup.home_id,
                        record=lookup.record,
                        latency_ms=CACHE_HIT_LATENCY_MS,
                        from_cache=True,
                        tenant=owner[path],
                    )
                continue
            predictions.append((path, lookup.predicted_home))
        for kind, count in hits.items():
            if count:
                self._cache_hits.labels(kind).inc(count)
        # ---- batched re-validation ------------------------------------
        batches, unroutable = self.batcher.plan(predictions)
        fallthrough: List[str] = list(unroutable)
        for batch in batches:
            outcome = self.cluster.verify_batch(batch.home_id, batch.paths)
            self.backend_queries += 1
            self._backend.labels("batch").inc()
            if outcome.degraded:
                # The predicted home did not answer; every key in the
                # batch must walk the full hierarchy instead.
                fallthrough.extend(batch.paths)
                continue
            for path in batch.paths:
                record = outcome.results.get(path)
                if record is None:
                    # Prediction went stale (migrated / deleted): full walk.
                    fallthrough.append(path)
                    continue
                self._batched.inc()
                hot = self.hotspots.is_hot(path)
                self.cache.put(
                    path,
                    batch.home_id,
                    record,
                    now,
                    hot=hot,
                    backend_version=outcome.versions.get(path),
                )
                answered[path] = GatewayResponse(
                    path=path,
                    outcome=Outcome.BATCHED,
                    home_id=batch.home_id,
                    record=record,
                    latency_ms=outcome.latency_ms,
                    tenant=owner[path],
                )
        # ---- full backend walks ---------------------------------------
        for path in fallthrough:
            result, record, _ = self._walk_and_lease(
                path, now, "query", shield=True
            )
            self.backend_queries += 1
            if result.degraded and result.home_id is not None:
                # Served all the same (never leased): read what the
                # walk, having nothing to lease, did not.
                record = self.cluster.record_at(result.home_id, path)
            answered[path] = GatewayResponse(
                path=path,
                outcome=Outcome.SERVED,
                home_id=result.home_id,
                record=record,
                latency_ms=result.latency_ms,
                degraded=result.degraded,
                tenant=owner[path],
            )
        # ---- shield refresh: pin what is hot --------------------------
        # Touch-renewal of hot leases is only coherent when the cluster
        # hook invalidates them; hook-less members pin for eviction
        # immunity but let leases expire on schedule.
        self.cache.pin_all(self.hotspots.hot_set(), now, extend=self.hooked)
        # ---- gateway spans (one per leader flight) --------------------
        if self.tracer.enabled:
            for path in flight.leaders:
                response = answered[path]
                span = self.tracer.start_span(
                    path, -1, component="gateway", kind="lookup"
                )
                local = response.from_cache or response.from_overlay
                span.event(
                    "gw_cache",
                    hit=local,
                    latency_ms=(response.latency_ms if local else 0.0),
                )
                if not local:
                    span.event(
                        "gw_backend",
                        target=response.home_id,
                        latency_ms=response.latency_ms,
                        messages=2,
                        batched=response.outcome is Outcome.BATCHED,
                    )
                span.finish(
                    f"GW-{response.outcome.name}",
                    response.home_id,
                    response.latency_ms,
                    0 if local else 2,
                )
        # ---- fan out to waiters ---------------------------------------
        responses: List[GatewayResponse] = [None] * len(paths)  # type: ignore[list-item]
        for leader, indices in flight.waiters.items():
            base = answered[leader]
            responses[indices[0]] = base
            for index in indices[1:]:
                self._coalesced.inc()
                responses[index] = GatewayResponse(
                    path=base.path,
                    outcome=Outcome.COALESCED,
                    home_id=base.home_id,
                    record=base.record,
                    latency_ms=base.latency_ms,
                    degraded=base.degraded,
                    from_cache=base.from_cache,
                    from_overlay=base.from_overlay,
                    tenant=tenants[index],
                )
        return list(responses)

    def _walk_and_lease(
        self, path: str, now: float, label: str, shield: bool = False
    ) -> Tuple[QueryResult, Optional[FileMetadata], Optional[int]]:
        """One full L1-L4 walk at the fleet (RPC ``label``; the caller
        counts it as a backend query or mutation).  A conclusive answer
        is leased — positive with the home's record (``shield``: under
        the hotspot shield when the path is hot), or negative — and
        returned as ``(result, record, backend path version)``.  A
        fault-degraded answer is never leased — an incomplete multicast
        may have missed the true home — and nothing may be concluded
        from it: neither record nor version is read.
        """
        result = self.cluster.query(path)
        self._backend.labels(label).inc()
        if result.degraded:
            self._uncacheable.inc()
            return result, None, None
        version = self.cluster.path_version(path)
        if result.home_id is None:
            self.cache.put_negative(path, now, backend_version=version)
            return result, None, version
        record = self.cluster.record_at(result.home_id, path)
        self.cache.put(
            path,
            result.home_id,
            record,
            now,
            hot=shield and self.hotspots.is_hot(path),
            backend_version=version,
        )
        return result, record, version

    # ------------------------------------------------------------------
    # Mutations (write path)
    # ------------------------------------------------------------------
    def create(
        self,
        path: str,
        now: float = 0.0,
        home_id: Optional[int] = None,
        tenant: str = "-",
    ) -> GatewayResponse:
        """Create ``path``.

        Write-through mode: synchronous insert at the cluster plus a
        fresh lease.  Write-back mode: the create parks in the buffer
        (``BUFFERED``) with a versioned final-state record; the flush
        engine applies it in a batched ``MUTATE_BATCH`` later.
        """
        self._requests.labels("create", tenant).inc()
        if self.writeback is not None:
            return self._buffer_create(path, now, home_id)
        home = self.cluster.insert_file(
            FileMetadata(path=path, inode=self.cluster.file_count()),
            home_id=home_id,
        )
        self.backend_mutations += 1
        self._backend.labels("mutate").inc()
        # The mutation hook dropped any (negative) lease; write through.
        record = self.cluster.record_at(home, path)
        self.cache.put(
            path,
            home,
            record,
            now,
            backend_version=self.cluster.path_version(path),
        )
        return GatewayResponse(
            path=path,
            outcome=Outcome.SERVED,
            home_id=home,
            record=record,
            latency_ms=self.cluster.round_trip_ms(),
        )

    def delete(self, path: str, now: float = 0.0) -> GatewayResponse:
        """Delete ``path``; a negative lease remembers the absence."""
        self._requests.labels("delete", "-").inc()
        if self.writeback is not None:
            return self._buffer_delete(path, now)
        return self._delete_through(path, now)

    def _delete_through(self, path: str, now: float) -> GatewayResponse:
        """Synchronous delete at the fleet (which owns routing)."""
        home = self.cluster.delete_file(path)
        self.backend_mutations += 1
        self._backend.labels("mutate").inc()
        if home is not None:
            self.cache.put_negative(
                path, now, backend_version=self.cluster.path_version(path)
            )
        return GatewayResponse(
            path=path,
            outcome=Outcome.SERVED if home is not None else Outcome.NEGATIVE_HIT,
            home_id=home,
            latency_ms=self.cluster.round_trip_ms(),
        )

    def rename(
        self,
        old_prefix: str,
        new_prefix: str,
        now: float = 0.0,
    ) -> int:
        """Rename a subtree; the mutation hook invalidates both prefixes.

        Renames are **barrier operations** in write-back mode: every
        pending mutation whose path falls under either prefix is flushed
        first (boundary-aware — a pending ``/a/bc`` survives a rename of
        ``/a/b``), then the rename applies synchronously.  A pending
        mutation whose home is unreachable during the partial barrier is
        declared lost (counted and recorded), never silently dropped —
        its path is about to change, so re-parking it is not sound.
        """
        self._requests.labels("rename", "-").inc()
        if self.writeback is not None:
            affected = set(self.writeback.paths_under(old_prefix))
            affected.update(self.writeback.paths_under(new_prefix))
            if affected:
                self._wb["rename_barriers"].inc()
                grouped = self.writeback.drain_paths(affected)
                for home in sorted(grouped):
                    self._flush_mutations(home, grouped[home], now, final=True)
            self._wb["passthrough"].labels("rename").inc()
        renamed = self.cluster.rename_subtree(old_prefix, new_prefix)
        self.backend_mutations += 1
        self._backend.labels("mutate").inc()
        return renamed

    # ------------------------------------------------------------------
    # Write-back buffering
    # ------------------------------------------------------------------
    def add_ack_listener(self, listener: AckListener) -> None:
        """Register a callback fired at flush-ack time.

        Called as ``listener(mutation, outcome)`` when the home MDS
        settles a buffered mutation (``outcome.applied``/``.conflict``
        tell how), and as ``listener(mutation, None)`` when the mutation
        is declared lost.  The cohort tier mints invalidation records
        here — never at enqueue time, because an unflushed mutation has
        not happened as far as the fleet (and every peer) is concerned.
        """
        self._ack_listeners.append(listener)

    def _fire_ack(
        self, mutation: PendingMutation, outcome: Optional[MutationOutcome]
    ) -> None:
        for listener in self._ack_listeners:
            listener(mutation, outcome)

    def _buffer_create(
        self, path: str, now: float, home_id: Optional[int]
    ) -> GatewayResponse:
        buffer = self.writeback
        assert buffer is not None
        pending = buffer.get(path)
        base_version: Optional[int] = None
        if home_id is None:
            if pending is not None:
                # Same-path overwrite: stay at the pending home (enqueue
                # keeps the original base when absorbing).
                home_id = pending.home_id
            else:
                entry = self.cache.peek(path)
                if entry is not None and entry.home_id is not None:
                    home_id = entry.home_id
                else:
                    home_id = self._wb_rng.choice(self.cluster.server_ids())
        if pending is None:
            entry = self.cache.peek(path)
            if entry is not None:
                base_version = entry.backend_version
        record = FileMetadata(path=path, inode=self._next_inode())
        self._enqueue(
            "create", path, home_id, now, record=record, base_version=base_version
        )
        pending_after = buffer.get(path)
        return GatewayResponse(
            path=path,
            outcome=Outcome.BUFFERED,
            home_id=(
                pending_after.home_id if pending_after is not None else home_id
            ),
            record=record,
            latency_ms=CACHE_HIT_LATENCY_MS,
            from_overlay=True,
        )

    def _buffer_delete(self, path: str, now: float) -> GatewayResponse:
        buffer = self.writeback
        assert buffer is not None
        pending = buffer.get(path)
        home_id: Optional[int] = None
        base_version: Optional[int] = None
        latency_ms = CACHE_HIT_LATENCY_MS
        if pending is not None:
            home_id = pending.home_id
        else:
            entry = self.cache.peek(path)
            if entry is not None and entry.negative and entry.fresh(now):
                # Fresh negative lease: the path is known absent.
                return GatewayResponse(
                    path=path,
                    outcome=Outcome.NEGATIVE_HIT,
                    latency_ms=CACHE_HIT_LATENCY_MS,
                    from_cache=True,
                )
            if entry is not None and entry.home_id is not None:
                home_id = entry.home_id
                base_version = entry.backend_version
            else:
                # No routing hint: resolve the home through the backend
                # (a mutation-path RPC) so the delete batches correctly;
                # the caller blocked on that round trip.
                result, _, base_version = self._walk_and_lease(
                    path, now, "mutate_resolve"
                )
                self.backend_mutations += 1
                if result.degraded:
                    # Partial multicast: routing unknown, and the path
                    # must not be treated as absent.  Never drop the
                    # delete — fall through to the synchronous path (the
                    # cluster owns routing), exactly as write-through
                    # would.  Guessing a home is not sound: a wrong-home
                    # delete settles as a conflict, not a retry.
                    self._wb["passthrough"].labels("delete").inc()
                    return self._delete_through(path, now)
                latency_ms = self.cluster.round_trip_ms()
                home_id = result.home_id
                if home_id is None:
                    return GatewayResponse(
                        path=path,
                        outcome=Outcome.NEGATIVE_HIT,
                        latency_ms=latency_ms,
                    )
        self._enqueue("delete", path, home_id, now, base_version=base_version)
        return GatewayResponse(
            path=path,
            outcome=Outcome.BUFFERED,
            latency_ms=latency_ms,
            from_overlay=True,
        )

    def _enqueue(
        self,
        op: str,
        path: str,
        home_id: int,
        now: float,
        record: Optional[FileMetadata] = None,
        base_version: Optional[int] = None,
    ) -> None:
        """Park one mutation in the buffer: its counters (the buffer's
        absorption tally is mirrored into one), its trace root, and the
        flush trigger it may have tripped."""
        buffer = self.writeback
        assert buffer is not None
        mutation = buffer.enqueue(
            op, path, home_id, now, record=record, base_version=base_version
        )
        self._wb["enqueued"].labels(op).inc()
        self._note_enqueue(mutation, now)
        delta = buffer.absorbed - int(self._wb["absorbed"].value)
        if delta:
            self._wb["absorbed"].inc(delta)
        self.maybe_flush(now)

    def _note_enqueue(self, mutation: PendingMutation, now: float) -> None:
        """Trace/flight bookkeeping for one buffered mutation.

        Mints the root span of the mutation's causal trace (client
        enqueue) and stamps its context on the pending record, so the
        flush, arbitration and invalidation hops downstream all attach
        to the same tree.  No-op (and allocation-free) when tracing and
        the flight recorder are both disabled.
        """
        if self.tracer.enabled:
            span = self.tracer.start_span(
                mutation.path,
                self.config.writeback_origin,
                component="gateway",
                kind="wb_enqueue",
            )
            span.event(
                "wb_enqueue",
                target=mutation.home_id,
                op=mutation.op,
                version=mutation.version,
                absorbed=mutation.absorbed,
            )
            span.finish("WB-ENQUEUE", mutation.home_id, 0.0, 0)
            mutation.trace = span.context(self.config.writeback_origin)
        if self._flight.enabled:
            self._flight.record(
                "wb_enqueue",
                now,
                op=mutation.op,
                path=mutation.path,
                home=mutation.home_id,
                version=mutation.version,
            )

    def _next_inode(self) -> int:
        inode = self.cluster.file_count() + self._wb_created
        self._wb_created += 1
        return inode

    # ------------------------------------------------------------------
    # The flush engine
    # ------------------------------------------------------------------
    def maybe_flush(self, now: float) -> FlushReport:
        """Flush every home bucket that tripped a size or age trigger
        (:meth:`MutationBuffer.due`) and is not backing off."""
        report = FlushReport()
        buffer = self.writeback
        if buffer is None:
            return report
        cfg = self.config
        for home_id in buffer.due(now, cfg.flush_age_s, cfg.flush_max_pending):
            if self._wb_backoff.get(home_id, 0.0) > now:
                continue
            report.merge(
                self._flush_mutations(
                    home_id, buffer.drain_home(home_id), now, final=False
                )
            )
        return report

    def flush_barrier(self, now: float = 0.0) -> FlushReport:
        """Flush **everything**; what cannot be acked is declared lost.

        The explicit end-of-run (and test harness) synchronization
        point: after it returns, every buffered mutation has either been
        acknowledged by its home MDS, surfaced as a version-race
        conflict, or is listed in ``report.lost`` (and
        ``self.lost_mutations``) — nothing stays silently parked.
        """
        report = FlushReport()
        buffer = self.writeback
        if buffer is None:
            return report
        self._wb["barriers"].inc()
        for home_id in buffer.homes():
            report.merge(
                self._flush_mutations(
                    home_id, buffer.drain_home(home_id), now, final=True
                )
            )
        return report

    def _flush_mutations(
        self,
        home_id: int,
        batch: List[PendingMutation],
        now: float,
        final: bool,
    ) -> FlushReport:
        report = FlushReport()
        if not batch:
            return report
        buffer = self.writeback
        assert buffer is not None
        report.batches += 1
        flush_spans: Dict[int, Span] = {}
        if self.tracer.enabled:
            # One flush span per mutation, parented on the enqueue span
            # (or the previous flush attempt).  The mutation's context is
            # re-pointed at the flush span before the payload is built,
            # so the MDS arbitration span and the invalidation mint both
            # land *under* the flush hop in the assembled tree.
            origin = self.config.writeback_origin
            for m in batch:
                ctx = m.trace
                span = self.tracer.start_span(
                    m.path,
                    origin,
                    trace_id=None if ctx is None else ctx[0],
                    parent_id=None if ctx is None else ctx[1],
                    component="gateway",
                    kind="wb_flush",
                )
                flush_spans[m.version] = span
                m.trace = span.context(origin)
        payload = [m.as_path_mutation() for m in batch]
        result = None
        for _ in range(FLUSH_RETRY_LIMIT):
            report.attempts += 1
            self.backend_mutations += 1
            self._backend.labels("mutate_batch").inc()
            self._wb["flush_batches"].inc()
            attempt = self.cluster.apply_mutation_batch(
                home_id,
                payload,
                origin=self.config.writeback_origin,
                acked_version=buffer.acks.floor,
            )
            if not attempt.degraded:
                result = attempt
                break
            self._wb["retries"].inc()
        if result is None:
            if self._flight.enabled:
                self._flight.record(
                    "wb_flush_unreachable",
                    now,
                    home=home_id,
                    count=len(batch),
                    final=final,
                )
            if not final:
                for mutation in batch:
                    mutation.retries += 1
                self._wb_backoff[home_id] = now + FLUSH_RETRY_BACKOFF_S
            self._unacked(batch, home_id, final, flush_spans, report)
            return report
        self._wb_backoff.pop(home_id, None)
        outcomes = {o.version: o for o in result.outcomes}
        for mutation in batch:
            outcome = outcomes.get(mutation.version)
            if outcome is None:
                # The home never saw this version (should not happen with
                # an intact reply); treat as deferred/lost conservatively.
                self._unacked([mutation], home_id, final, flush_spans, report)
                continue
            buffer.settle(mutation.version)
            span = flush_spans.get(mutation.version)
            if span is not None:
                span.event(
                    "wb_ack",
                    target=home_id,
                    applied=outcome.applied,
                    conflict=outcome.conflict,
                    deduped=outcome.deduped,
                    new_version=outcome.new_version,
                )
                span.finish(
                    "WB-ACKED" if outcome.applied else "WB-CONFLICT",
                    home_id,
                    0.0,
                    2,
                )
            if outcome.applied:
                self._wb["flushed"].labels(mutation.op, home_id).inc()
                if mutation.op == "create":
                    self.cache.put(
                        mutation.path,
                        home_id,
                        mutation.record,
                        now,
                        backend_version=outcome.new_version,
                    )
                else:
                    self.cache.put_negative(
                        mutation.path,
                        now,
                        backend_version=outcome.new_version,
                    )
                report.acked.append(mutation)
            else:  # version race lost: re-read, never clobber
                self._wb["conflicts"].inc()
                if self._flight.enabled:
                    self._flight.record(
                        "wb_conflict",
                        now,
                        path=mutation.path,
                        home=home_id,
                        version=mutation.version,
                        winner_version=outcome.new_version,
                    )
                self.cache.invalidate(
                    mutation.path, cause="writeback_conflict"
                )
                # Refetch the race winner's state under a fresh lease.
                self._wb["rereads"].inc()
                self._walk_and_lease(mutation.path, now, "writeback_reread")
                self.backend_mutations += 1
                report.conflicts.append(mutation)
            self._fire_ack(mutation, outcome)
        return report

    def _unacked(
        self,
        batch: List[PendingMutation],
        home_id: int,
        final: bool,
        flush_spans: Dict[int, Span],
        report: FlushReport,
    ) -> None:
        """Dispose of flushed mutations their home did not acknowledge."""
        buffer = self.writeback
        assert buffer is not None
        self._wb["lost" if final else "deferred"].inc(len(batch))
        for mutation in batch:
            if final:
                # Explicit loss: count, record, surface — and drop the
                # lease so later reads refetch true (pre-mutation) state
                # instead of serving the phantom write.
                buffer.settle(mutation.version)
                self.lost_mutations.append(mutation)
                self.cache.invalidate(mutation.path, cause="writeback_lost")
            span = flush_spans.get(mutation.version)
            if span is not None:
                span.event(
                    "wb_flush_exit",
                    target=home_id,
                    op=mutation.op,
                    retries=mutation.retries,
                )
                span.finish(
                    "WB-LOST" if final else "WB-DEFERRED", home_id, 0.0, 1
                )
            if final:
                self._fire_ack(mutation, None)
        if final:
            report.lost.extend(batch)
        else:
            # Transient: re-park for a later trigger (the fault window
            # may close); only a barrier declares loss.
            buffer.requeue(batch)
            report.deferred.extend(batch)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def hit_rate(self) -> float:
        return self.cache.hit_rate()

    def shed_total(self) -> int:
        return self.admission.stats.shed

    def top_hotspots(self, k: int = 5) -> List[HeavyHitter]:
        return self.hotspots.top_k(k)

    def __repr__(self) -> str:
        return (
            f"MetadataClient(cache={len(self.cache)}, "
            f"backend_queries={self.backend_queries}, "
            f"hit_rate={self.hit_rate():.3f})"
        )
