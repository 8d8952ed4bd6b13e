"""The shield, write-back and cohort scenarios of ``repro.gateway bench``.

Each is a handlers object driven by the shared
:func:`~repro.gateway.scenario.replay`, plus the audit that makes its
numbers trustworthy and the gates the CLI exits nonzero on.  (The fourth
scenario, tenants, is :mod:`repro.gateway.tenant_bench`.)  Everything
runs on seeded RNGs and virtual time: the same spec always produces the
same stats and a byte-identical report.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.cluster import MutationEvent
from repro.faults.injector import PlanFaultInjector
from repro.faults.plan import FaultPlan, Partition
from repro.gateway.client import GatewayConfig, MetadataClient, Outcome
from repro.gateway.cohort import CohortConfig, GatewayCohort
from repro.gateway.scenario import ScenarioSpec, drain, fault_clock, replay
from repro.gateway.staleness import StalenessAuditor, matches_fleet
from repro.metadata.namespace import is_under
from repro.obs.registry import percentile
from repro.obs.report import gateway_hotspot_report
from repro.scenario import ScenarioResult
from repro.traces.records import MetadataOp


def _failed(*gates: Tuple[object, str]) -> List[str]:
    """Messages of the gates whose first element is truthy (= red)."""
    return [message for red, message in gates if red]


# ----------------------------------------------------------------------
# Shield: one gateway vs direct cluster access
# ----------------------------------------------------------------------
_SHIELD_REPORT = """\
== gateway bench ==
workload                : {profile} x {ops} ops, seed {seed}, {clients} clients{tag}
lookups submitted       : {lookups_submitted}
cache hit rate          : {hit_rate:.3f}
backend queries         : {backend_queries} (direct: {direct_queries})
backend reduction       : x{backend_reduction:.2f}
shed (rate)             : {shed} ({shed_rate:.3f})
stale reads             : {stale_reads}
degraded (uncached)     : {degraded_answers}
latency p50/p99 ms      : {p50_ms:.4f} / {p99_ms:.4f}
direct p50/p99 ms       : {direct_p50_ms:.4f} / {direct_p99_ms:.4f}
outcomes                : {outcome_list}

{hotspot_table}"""


class _Shield:
    """Gateway on one fleet, direct queries on an identical mirror.

    Mutations apply to both fleets so the mirror stays equivalent;
    lookups fan through the gateway pipeline on one side and pay one
    full walk each on the other.  **Every** cache-served answer is
    audited against the live fleet (zero stale reads is an invariant,
    not a statistic).
    """

    def __init__(self, gateway: MetadataClient, fleet, mirror) -> None:
        self.gateway = gateway
        self.fleet = fleet
        self.mirror = mirror
        self.latencies: List[float] = []
        self.direct_latencies: List[float] = []
        self.outcomes: Dict[str, int] = {}
        self.stale_reads = 0
        self.mismatches = 0
        self.direct_queries = 0
        self.degraded_answers = 0

    def account(self, responses) -> None:
        for response in responses:
            kind = response.outcome.value
            self.outcomes[kind] = self.outcomes.get(kind, 0) + 1
            if not response.outcome.is_answer:
                continue
            self.latencies.append(response.latency_ms)
            if response.degraded:
                self.degraded_answers += 1
            if response.from_cache and not matches_fleet(self.fleet, response):
                self.stale_reads += 1

    def lookups(self, batch, now: float) -> None:
        paths = [record.path for _, record in batch]
        responses = self.gateway.lookup_many(paths, now)
        self.account(responses)
        answered = {r.path: r for r in responses if r.outcome.is_answer}
        for path in paths:
            direct = self.mirror.query(path)
            self.direct_queries += 1
            self.direct_latencies.append(direct.latency_ms)
            response = answered.get(path)
            if (
                response is not None
                and not response.degraded
                and not direct.degraded
                and response.home_id != direct.home_id
            ):
                self.mismatches += 1

    def create(self, index, record, now: float) -> None:
        created = self.gateway.create(record.path, now)
        # Pin the mirror's placement: the fleets' RNG streams have
        # diverged (queries draw origins), so an independent draw would
        # scatter the same file onto different homes.
        self.mirror.insert_file(created.record, home_id=created.home_id)

    def unlink(self, index, record, now: float) -> None:
        self.gateway.delete(record.path, now)
        self.mirror.delete_file(record.path)

    def rename(self, index, record, now: float) -> None:
        self.gateway.rename(record.path, record.new_path, now)
        self.mirror.rename_subtree(record.path, record.new_path)


def run_shield(spec: ScenarioSpec, tracer=None, flight=None) -> ScenarioResult:
    """Backend-query reduction of one gateway, with zero stale reads.

    ``spec.chaos`` runs the gateway's fleet beneath a seeded fault plan
    (message loss plus a mid-run group partition); the mirror stays
    healthy.  Gates: no stale read, no gateway/direct home mismatch.
    """
    records, paths = spec.trace()
    faults = None
    if spec.chaos:
        window = Partition(
            start_s=spec.chaos_start_s,
            end_s=spec.chaos_start_s + spec.chaos_window_s,
            island=frozenset(range(min(spec.group_size, spec.servers // 2))),
        )
        faults = PlanFaultInjector(
            FaultPlan(seed=spec.seed, drop_rate=0.02, partitions=(window,))
        )
    fleet = spec.fleet(paths, tracer=tracer, faults=faults)
    gateway = MetadataClient(
        fleet, spec.gateway_config(), tracer=tracer, flight=flight
    )
    run = _Shield(gateway, fleet, spec.fleet(paths))
    end = replay(records, run, clients=spec.clients, advance=fault_clock(fleet))
    drain(gateway, end, run.account)

    submitted = gateway.admission.stats.submitted
    shed = gateway.admission.stats.shed
    backend = gateway.backend_queries
    reduction = run.direct_queries / backend if backend else float("inf")
    gateway.refresh_gauges()
    stats: Dict[str, object] = {
        "seed": spec.seed,
        "profile": spec.profile,
        "servers": spec.servers,
        "clients": spec.clients,
        "ops": len(records),
        "lookups_submitted": submitted,
        "hit_rate": round(gateway.hit_rate(), 4),
        "backend_queries": backend,
        "direct_queries": run.direct_queries,
        "backend_reduction": round(reduction, 3),
        "shed": shed,
        "shed_rate": round(shed / submitted, 4) if submitted else 0.0,
        "stale_reads": run.stale_reads,
        "home_mismatches": run.mismatches,
        "degraded_answers": run.degraded_answers,
        "chaos": spec.chaos,
        "outcomes": {k: run.outcomes[k] for k in sorted(run.outcomes)},
        "p50_ms": round(percentile(run.latencies, 50), 4),
        "p99_ms": round(percentile(run.latencies, 99), 4),
        "direct_p50_ms": round(percentile(run.direct_latencies, 50), 4),
        "direct_p99_ms": round(percentile(run.direct_latencies, 99), 4),
        "hotspots": [
            {"path": h.key, "count": h.count, "error": h.error}
            for h in gateway.top_hotspots(spec.top)
        ],
    }
    report = _SHIELD_REPORT.format(
        **stats,
        tag=" (chaos)" if spec.chaos else "",
        outcome_list=", ".join(
            f"{kind}={count}" for kind, count in sorted(run.outcomes.items())
        ),
        hotspot_table=gateway_hotspot_report(gateway, top=spec.top),
    )
    failures = _failed(
        (run.stale_reads, f"{run.stale_reads} stale reads"),
        (run.mismatches, f"{run.mismatches} gateway/direct home mismatches"),
    )
    return ScenarioResult(stats, report, failures)


# ----------------------------------------------------------------------
# Write-back: buffered/batched mutations vs write-through
# ----------------------------------------------------------------------
_WRITEBACK_REPORT = """\
== gateway write-back bench ==
workload                : {profile} x {ops} ops ({mutations} mutations), seed {seed}, \
{crash_windows} crash windows{tag}
mutation RPCs           : write-through {writethrough[mutation_rpcs]} \
vs write-back {writeback[mutation_rpcs]}
mutation RPC reduction  : x{mutation_rpc_reduction:.2f}
mutation p50/p99 ms     : write-through {writethrough[mutation_p50_ms]:.4f} / \
{writethrough[mutation_p99_ms]:.4f} vs write-back {writeback[mutation_p50_ms]:.4f} / \
{writeback[mutation_p99_ms]:.4f}
flush batches (retries) : {writeback[flush_batches]} ({writeback[flush_retries]})
absorbed / overlay hits : {writeback[absorbed]} / {writeback[overlay_hits]}
conflicts / deferred    : {writeback[conflicts]} / {writeback[deferred]}
losses reported         : {writeback[lost_reported]}
oracle divergences      : write-through {writethrough[oracle_divergences]}, \
write-back {writeback[oracle_divergences]}
cross-mode divergence   : {mode_namespace_divergence}
stale reads             : {writeback[stale_reads]} \
(overlay mismatches {writeback[overlay_mismatches]})"""


def _crash_windows(
    duration_s: float, servers: int
) -> List[Tuple[float, float, int]]:
    """Deterministic mid-trace MDS outages for the write-back scenario.

    Two non-overlapping windows, each silencing one home MDS for ~10% of
    the trace.  Both end well before the trace does, so deferred flushes
    retry to acknowledgement and the final barrier reports zero losses —
    the loss path itself is exercised by the integration tests.
    """
    if duration_s <= 0 or servers < 3:
        return []
    return [
        (duration_s * 0.30, duration_s * 0.40, 1),
        (duration_s * 0.55, duration_s * 0.65, 2),
    ]


class _AckOracle:
    """One write mode's replay, an acknowledgement oracle alongside.

    The oracle is an in-memory namespace of *acknowledged* state: it
    applies write-through mutations synchronously and write-back
    mutations at flush-ack (renames are synchronous in both modes).  At
    the end-of-trace barrier the fleet must equal the oracle exactly —
    every acknowledged mutation durable, nothing unacked silently
    absorbed.
    """

    def __init__(self, client, fleet, oracle: Set[str], windows, placements):
        self.client = client
        self.fleet = fleet
        self.oracle = oracle
        self.windows = windows
        self.placements = placements
        self.writeback = client.writeback is not None
        self.mutation_latencies: List[float] = []
        self.stale_reads = 0
        self.overlay_mismatches = 0
        if self.writeback:
            client.add_ack_listener(self._on_ack)

    def _on_ack(self, mutation, outcome) -> None:
        if outcome is None or not outcome.applied:
            return  # lost or conflicted: never acknowledged
        if mutation.op == "create":
            self.oracle.add(mutation.path)
        else:
            self.oracle.discard(mutation.path)

    def advance(self, now: float) -> None:
        injector = self.fleet.faults
        injector.advance(now)
        for start, end, server_id in self.windows:
            if start <= now < end:
                injector.silence(server_id)
            else:
                injector.restore(server_id)

    def lookups(self, batch, now: float) -> None:
        for _, record in batch:
            response = self.client.lookup(record.path, now)
            if response.from_overlay:
                # Read-your-writes: the answer must match the pending
                # intent, not the (behind) fleet.
                pending = (
                    self.client.writeback.get(response.path)
                    if self.writeback
                    else None
                )
                if pending is None or (pending.op == "create") != response.found:
                    self.overlay_mismatches += 1
            elif response.from_cache and (
                self.fleet.home_of(response.path) != response.home_id
            ):
                self.stale_reads += 1

    def create(self, index, record, now: float) -> None:
        response = self.client.create(
            record.path, now, home_id=self.placements[index]
        )
        self.mutation_latencies.append(response.latency_ms)
        if not self.writeback:
            self.oracle.add(record.path)

    def unlink(self, index, record, now: float) -> None:
        response = self.client.delete(record.path, now)
        self.mutation_latencies.append(response.latency_ms)
        if not self.writeback or response.outcome is not Outcome.BUFFERED:
            # Write-through, or a write-back passthrough delete (no
            # routing lease during a degraded multicast): applied
            # synchronously, so the oracle learns it here, not at ack.
            self.oracle.discard(record.path)

    def rename(self, index, record, now: float) -> None:
        self.client.rename(record.path, record.new_path, now)
        # Mirror ``rename_subtree`` boundary semantics on the oracle set.
        old, new = record.path, record.new_path
        victims = [path for path in self.oracle if is_under(path, old)]
        for path in victims:
            self.oracle.discard(path)
            self.oracle.add(new + path[len(old):])


def _replay_write_mode(
    spec: ScenarioSpec,
    records,
    population: List[str],
    writeback: bool,
    windows,
    placements: Dict[int, int],
    tracer=None,
    flight=None,
) -> Tuple[Dict[str, object], Set[str]]:
    """One mode's replay: ``(stats, final fleet namespace)``."""
    plan = FaultPlan(seed=spec.seed, drop_rate=0.02 if spec.chaos else 0.0)
    injector = PlanFaultInjector(plan, flight=flight)
    # The fleet shares the tracer so MDS-side arbitration spans
    # (wb_arbitrate) land in the same causal trees as the gateway hops.
    fleet = spec.fleet(population, tracer=tracer, faults=injector)
    client = MetadataClient(
        fleet,
        spec.gateway_config(
            writeback=writeback,
            flush_max_pending=spec.flush_max_pending,
            flush_age_s=spec.flush_age_s,
            writeback_seed=spec.seed,
        ),
        tracer=tracer,
        flight=flight,
    )
    oracle: Set[str] = set(population)
    run = _AckOracle(client, fleet, oracle, windows, placements)
    end_of_trace = replay(records, run, advance=run.advance)
    for _, _, server_id in windows:
        injector.restore(server_id)
    lost = 0
    if writeback:
        client.flush_barrier(end_of_trace)
        lost = len(client.lost_mutations)
    namespace = {
        meta.path
        for server in fleet.servers.values()
        for meta in server.store.records()
    }
    wb = client._wb
    return {
        "mutation_rpcs": client.backend_mutations,
        "mutation_p50_ms": round(percentile(run.mutation_latencies, 50), 4),
        "mutation_p99_ms": round(percentile(run.mutation_latencies, 99), 4),
        "oracle_divergences": len(namespace ^ oracle),
        "stale_reads": run.stale_reads,
        "overlay_mismatches": run.overlay_mismatches,
        "lost_reported": lost,
        "flush_batches": int(wb["flush_batches"].value),
        "flush_retries": int(wb["retries"].value),
        "absorbed": int(wb["absorbed"].value),
        "overlay_hits": int(wb["overlay_hits"].value),
        "conflicts": int(wb["conflicts"].value),
        "deferred": int(wb["deferred"].value),
    }, namespace


def run_writeback(
    spec: ScenarioSpec, tracer=None, flight=None
) -> ScenarioResult:
    """Write-through vs write-back on one trace: RPCs, latency, losses.

    Both replays see the identical op stream, MDS fleet, crash windows
    and create placements (drawn from a scenario-level RNG and passed as
    explicit home hints), so the end-of-run namespaces must match each
    other *and* each mode's acknowledgement oracle exactly.  Gates: a
    >= 1.5x mutation-RPC reduction, zero oracle divergences in either
    mode, zero stale reads / overlay mismatches, zero cross-mode
    namespace divergence.
    """
    records, paths = spec.trace()
    duration = records[-1].timestamp if records else 0.0
    windows = _crash_windows(duration, spec.servers)
    placement_rng = random.Random(spec.seed ^ 0x57B0)
    placements = {
        index: placement_rng.randrange(spec.servers)
        for index, record in enumerate(records)
        if record.op is MetadataOp.CREATE
    }
    through, through_ns = _replay_write_mode(
        spec, records, paths, False, windows, placements
    )
    # Observability rides on the mode under study only: the write-through
    # baseline stays plain so its replay is untouched by --trace-out.
    back, back_ns = _replay_write_mode(
        spec, records, paths, True, windows, placements, tracer, flight
    )
    wb_rpcs = back["mutation_rpcs"]
    reduction = round(
        through["mutation_rpcs"] / wb_rpcs if wb_rpcs else float("inf"), 3
    )
    stats: Dict[str, object] = {
        "seed": spec.seed,
        "profile": spec.profile,
        "servers": spec.servers,
        "ops": len(records),
        "mutations": sum(1 for r in records if r.op.mutates_namespace),
        "chaos": spec.chaos,
        "crash_windows": len(windows),
        "writethrough": through,
        "writeback": back,
        "mutation_rpc_reduction": reduction,
        "mode_namespace_divergence": len(through_ns ^ back_ns),
    }
    report = _WRITEBACK_REPORT.format(
        **stats, tag=" (chaos)" if spec.chaos else ""
    )
    failures = _failed(
        (reduction < 1.5, f"mutation RPC reduction x{reduction} < x1.5"),
        (
            through["oracle_divergences"],
            f"{through['oracle_divergences']} write-through oracle divergences",
        ),
        (
            back["oracle_divergences"],
            f"{back['oracle_divergences']} write-back oracle divergences",
        ),
        (
            back["stale_reads"] or back["overlay_mismatches"],
            f"{back['stale_reads']} stale reads, "
            f"{back['overlay_mismatches']} overlay mismatches",
        ),
        (
            stats["mode_namespace_divergence"],
            f"{stats['mode_namespace_divergence']} cross-mode namespace "
            "divergences",
        ),
    )
    return ScenarioResult(stats, report, failures)


# ----------------------------------------------------------------------
# Cohort: invalidation multicast vs N independent gateways
# ----------------------------------------------------------------------
_COHORT_REPORT = """\
== gateway cohort bench ==
workload                : {profile} x {ops} ops ({mutations} mutations), seed {seed}, \
{cohort} gateways, {duration_s}s
staleness bound         : {staleness_bound_s}s
cohort stale reads      : {cohort_audit[stale_reads]} \
(p99 {cohort_audit[staleness_p99_s]}s, max {cohort_audit[staleness_max_s]}s)
cohort violations       : {violations}
independent violations  : {independent_violations}
backend queries         : cohort {backend_queries_cohort} \
vs independent {backend_queries_independent}
backend reduction       : x{backend_reduction:.2f}
hit rate                : cohort {cohort_hit_rate:.3f} \
vs independent {independent_hit_rate:.3f}
invalidation traffic    : {invalidation_messages} msgs \
({invalidations_published} published, {invalidations_applied} applied, \
{duplicates_discarded} dup-discarded)
anti-entropy            : {gaps_detected} gaps, {sync_requests} sync requests, \
{sync_records_recovered} records recovered
degradation             : {peer_outages} peer outages, \
{clamp_engagements} clamp engagements
independent stale reads : {independent_audit[stale_reads]} \
(p99 {independent_audit[staleness_p99_s]}s)"""


def _cohort_fault_plan(seed: int, size: int, duration_s: float) -> FaultPlan:
    """The cohort scenario's canned chaos: lossy, duplicating links plus
    a mid-run partition islanding half the gateways."""
    partitions = ()
    if size > 1 and duration_s > 0:
        island = frozenset(range(max(1, size // 2)))
        partitions = (
            Partition(
                start_s=duration_s * 0.35,
                end_s=duration_s * 0.6,
                island=island,
            ),
        )
    return FaultPlan(
        seed=seed,
        drop_rate=0.05,
        delay_rate=0.10,
        delay_ms_min=0.5,
        delay_ms_max=3.0,
        duplicate_rate=0.05,
        partitions=partitions,
    )


class _Audited:
    """N gateways taking the trace round-robin, every answer audited by
    a :class:`StalenessAuditor`.

    ``homes`` pins create placements across deployments: the first
    replay records where each create landed, the second replays with
    those homes as hints, so both fleets hold identical namespaces.
    """

    def __init__(
        self, gateways: Sequence, auditor: StalenessAuditor, homes: Dict[int, int]
    ) -> None:
        self.gateways = gateways
        self.auditor = auditor
        self.homes = homes

    def _gateway(self, index: int):
        return self.gateways[index % len(self.gateways)]

    def lookups(self, batch, now: float) -> None:
        for index, record in batch:
            response = self._gateway(index).lookup(record.path, now)
            self.auditor.audit(response, now, index % len(self.gateways))

    def create(self, index, record, now: float) -> None:
        created = self._gateway(index).create(
            record.path, now, home_id=self.homes.get(index)
        )
        self.homes[index] = created.home_id
        self.auditor.note_mutation("create", record.path, now)

    def unlink(self, index, record, now: float) -> None:
        self._gateway(index).delete(record.path, now)
        self.auditor.note_mutation("delete", record.path, now)

    def rename(self, index, record, now: float) -> None:
        self._gateway(index).rename(record.path, record.new_path, now)
        self.auditor.note_mutation(
            "rename", record.path, now, new_path=record.new_path
        )


class _Independents(_Audited):
    def rename(self, index, record, now: float) -> None:
        super().rename(index, record, now)
        # An independent gateway still invalidates on its *own*
        # mutations; without the cluster hook the rename event must be
        # applied explicitly (the cohort member does the same).
        self._gateway(index).apply_mutation(
            MutationEvent(
                op="rename", path=record.path, new_path=record.new_path
            )
        )


def run_cohort(spec: ScenarioSpec, tracer=None, flight=None) -> ScenarioResult:
    """Cohort-with-multicast vs N independent gateways on one trace,
    under a seeded fault plan (drops, delays, duplicates, a mid-run
    partition islanding half the gateways).

    Both deployments promise the same staleness bound; the cohort keeps
    it with invalidations (long leases stay safe), the independents by
    clamping every lease TTL to the bound — the only way an
    invalidation-free deployment can promise it.  The difference in
    backend queries is the value of the protocol.  Gates: zero
    staleness-bound violations on either side.
    """
    records, paths = spec.trace(ops_per_second=spec.trace_rate)
    duration = records[-1].timestamp if records else 0.0
    size = spec.cohort
    cohort_config = CohortConfig(
        heartbeat_interval_s=spec.heartbeat_s,
        suspect_after_s=spec.suspect_after_s,
        ttl_clamp_s=spec.ttl_clamp_s,
        # Invalidation multicast makes long negative leases safe too: a
        # create that would flip the answer is broadcast like any other
        # mutation.  The independent baseline cannot do this and must
        # clamp negatives to the bound below.
        gateway=spec.gateway_config(negative_ttl_s=spec.lease_ttl_s),
    )
    bound = cohort_config.staleness_bound_s

    # ---- cohort replay ------------------------------------------------
    fleet = spec.fleet(paths, tracer=tracer)
    cohort = GatewayCohort(
        fleet,
        size,
        cohort_config,
        tracer=tracer,
        faults=PlanFaultInjector(
            _cohort_fault_plan(spec.seed, size, duration),
            metrics=fleet.metrics,
            flight=flight,
        ),
        flight=flight,
    )
    auditor = StalenessAuditor(
        fleet, bound, metrics=fleet.metrics, flight=flight
    )
    homes: Dict[int, int] = {}
    step_s = cohort_config.heartbeat_interval_s / 2.0
    next_step = 0.0

    def heartbeat(now: float) -> None:
        nonlocal next_step
        while next_step <= now:
            for member_id, responses in cohort.step(next_step).items():
                for response in responses:
                    auditor.audit(response, next_step, member_id)
            next_step += step_s

    replay(records, _Audited(cohort.members, auditor, homes), advance=heartbeat)
    heartbeat(duration)
    cohort.settle(duration)

    # ---- independent-gateways replay ----------------------------------
    indep_fleet = spec.fleet(paths)
    indep_config = spec.gateway_config(
        lease_ttl_s=min(spec.lease_ttl_s, bound),
        negative_ttl_s=min(GatewayConfig().negative_ttl_s, bound),
        hot_lease_ttl_s=bound,
    )
    independents = [
        MetadataClient(indep_fleet, indep_config, register_mutation_hook=False)
        for _ in range(size)
    ]
    indep_auditor = StalenessAuditor(indep_fleet, bound)
    replay(records, _Independents(independents, indep_auditor, homes))

    cohort_backend = cohort.backend_queries
    indep_backend = sum(c.backend_queries for c in independents)
    reduction = (
        indep_backend / cohort_backend if cohort_backend else float("inf")
    )
    counters = cohort.counter_snapshot()

    def total(name: str) -> int:
        return int(sum(counters.get(f"gateway_cohort_{name}", {}).values()))

    stats: Dict[str, object] = {
        "seed": spec.seed,
        "profile": spec.profile,
        "servers": spec.servers,
        "cohort": size,
        "ops": len(records),
        "mutations": sum(1 for r in records if r.op.mutates_namespace),
        "duration_s": round(duration, 4),
        "staleness_bound_s": round(bound, 4),
        "cohort_audit": auditor.summary(),
        "independent_audit": indep_auditor.summary(),
        "violations": auditor.stats.violations,
        "independent_violations": indep_auditor.stats.violations,
        "backend_queries_cohort": cohort_backend,
        "backend_queries_independent": indep_backend,
        "backend_reduction": round(reduction, 3),
        "invalidation_messages": cohort.invalidation_messages,
        "invalidations_published": total("published_total"),
        "invalidations_applied": total("applied_total"),
        "duplicates_discarded": total("duplicates_total"),
        "gaps_detected": total("gaps_total"),
        "sync_requests": total("sync_requests_total"),
        "sync_records_recovered": total("sync_records_total"),
        "peer_outages": total("peer_missing_total"),
        "clamp_engagements": total("clamp_engaged_total"),
        "cohort_hit_rate": round(
            sum(m.client.hit_rate() for m in cohort.members) / size, 4
        ),
        "independent_hit_rate": round(
            sum(c.hit_rate() for c in independents) / size, 4
        ),
    }
    failures = _failed(
        (
            stats["violations"],
            f"{stats['violations']} cohort staleness-bound violations",
        ),
        (
            stats["independent_violations"],
            f"{stats['independent_violations']} baseline staleness-bound "
            "violations",
        ),
    )
    return ScenarioResult(stats, _COHORT_REPORT.format(**stats), failures)
