"""Multi-tenant admission bench: weighted max-min quotas vs a noisy
neighbour (DESIGN.md §16; ``--json PATH`` writes the stats).

One Zipf-mixed tenant workload (tenant ``u0`` is the noisy neighbour by
construction — Zipf rank 1 of the tenant popularity law) is replayed
through three deployments of the *same* gateway at each point of the
``--trace-rate`` sweep, with the admission rate provisioned below the
offered load so tenants genuinely contend for tokens:

- **fair** — the per-tenant weighted max-min controller under test
  (``admission_mode="fair"``), replayed twice for the determinism gate;
- **global** — the legacy tenant-blind bucket (``admission_mode=
  "global"``): the baseline the isolation gate must show *failing*;
- **solo** — each tenant alone on a fresh identical stack: the yardstick
  a quiet tenant's shared-mode goodput is measured against.

Gates (the CLI exits nonzero when any fails at any sweep point):

- **deterministic** — the second fair replay produces a bit-identical
  per-tenant counter digest;
- **jain** — Jain's fairness index over per-tenant ``goodput / max-min
  ideal share`` is >= 0.9 (equal weights);
- **no starvation** — every demanding tenant gets goodput, and at least
  80% of its max-min ideal share;
- **noisy capped** — the noisy tenant's goodput stays within 110% of its
  weighted max-min share, and it genuinely sheds (the point is
  contended, so the cap is not vacuous);
- **quiet isolated** — every quiet tenant (one whose demand fits inside
  its max-min share; isolation is a promise to them, while over-share
  tenants are governed by the fairness gates) keeps >= 90% of its solo
  goodput under the fair controller, while the global baseline
  demonstrably fails that bound for at least one quiet tenant;
- **reconciled** — ``submitted == goodput + shed`` for every tenant
  once the queues drain (nothing silently dropped).

Only lookup records replay: admission control governs the lookup path
(mutations are write-path RPCs outside the token bucket), and a static
namespace keeps the fair / global / solo replays exactly comparable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.gateway.admission import fractional_fair_shares
from repro.gateway.client import MetadataClient
from repro.gateway.scenario import ScenarioSpec, drain, fault_clock, replay
from repro.obs.registry import percentile
from repro.scenario import ScenarioResult
from repro.traces.records import TraceRecord
from repro.traces.tenants import TenantModel

#: Admission rate as a fraction of the trace rate (< 1 = contention).
TENANT_RATE_FACTOR = 0.5

#: Virtual tick width: all arrivals inside one tick are submitted
#: together, which is what per-tenant fairness is decided over.
TICK_S = 0.05

#: The noisy neighbour is Zipf rank 1 of the tenant law, always.
NOISY_TENANT = "u0"


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even, 1/n = one hog."""
    if not values:
        return 1.0
    square_sum = sum(v * v for v in values)
    if square_sum == 0.0:
        return 1.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


class _TenantTicks:
    """One :meth:`MetadataClient.lookup_tick` per window; per-tenant
    goodput and latency of every answer."""

    def __init__(self, gateway: MetadataClient) -> None:
        self.gateway = gateway
        self.goodput: Dict[str, int] = {}
        self.latencies: Dict[str, List[float]] = {}

    def account(self, responses) -> None:
        for response in responses:
            if response.outcome.is_answer:
                tenant = response.tenant
                self.goodput[tenant] = self.goodput.get(tenant, 0) + 1
                self.latencies.setdefault(tenant, []).append(
                    response.latency_ms
                )

    def lookups(self, batch, now: float) -> None:
        tick = tuple((record.tenant, record.path) for _, record in batch)
        self.account(self.gateway.lookup_tick(tick, now))


def replay_admission(
    spec: ScenarioSpec,
    lookups: Sequence[TraceRecord],
    paths: Sequence[str],
    rate_per_s: float,
    mode: str,
) -> Dict[str, object]:
    """One replay of ``lookups`` through a fresh gateway + fleet.

    Ticks are fixed ``TICK_S`` windows on the trace clock, and the
    admission queue is drained after the last record so every submitted
    lookup ends as goodput or an explicit shed.
    """
    fleet = spec.fleet(list(paths))
    gateway = MetadataClient(
        fleet,
        replace(
            spec.gateway_config(),
            rate_per_s=rate_per_s,
            # A small burst keeps the bench in steady-state contention
            # instead of letting the noisy tenant spend a deep bucket.
            burst=max(8.0, rate_per_s * 0.1),
            admission_mode=mode,
        ),
    )
    run = _TenantTicks(gateway)
    end = replay(lookups, run, tick_s=TICK_S, advance=fault_clock(fleet))
    drain(gateway, end, run.account)
    goodput, latencies = run.goodput, run.latencies

    per_tenant: Dict[str, Dict[str, object]] = {}
    unaccounted = 0
    for tenant in gateway.admission.tenants():
        stats = gateway.admission.tenant_stats(tenant)
        served = goodput.get(tenant, 0)
        shed = stats.shed
        unaccounted += stats.submitted - served - shed
        per_tenant[tenant] = {
            "submitted": stats.submitted,
            "goodput": served,
            "shed": shed,
            "shed_queue_full": stats.shed_full,
            "shed_deadline": stats.shed_deadline,
            "shed_rate": (
                round(shed / stats.submitted, 4) if stats.submitted else 0.0
            ),
            "p50_ms": round(percentile(latencies.get(tenant, []), 50), 4),
            "p99_ms": round(percentile(latencies.get(tenant, []), 99), 4),
        }
    digest = hashlib.sha256(
        json.dumps(per_tenant, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return {
        "mode": mode,
        "per_tenant": per_tenant,
        "total_goodput": sum(goodput.values()),
        "total_shed": int(gateway.admission.stats.shed),
        "unaccounted": unaccounted,
        "digest": digest,
    }


def _point_gates(
    tenants: List[str],
    fair: Dict[str, object],
    fair_repeat: Dict[str, object],
    global_mode: Dict[str, object],
    solo: Dict[str, Dict[str, object]],
) -> Tuple[Dict[str, object], List[str]]:
    """Evaluate one sweep point's gates; returns (summary, failures)."""
    failures: List[str] = []
    fair_tenants: Dict[str, Dict[str, object]] = fair["per_tenant"]  # type: ignore[assignment]
    demands = {
        t: int(fair_tenants[t]["submitted"])
        for t in tenants
        if t in fair_tenants
    }
    served = {t: int(fair_tenants[t]["goodput"]) for t in demands}
    # The max-min ideal divides the capacity the run actually delivered
    # (work conservation makes that exactly the admitted total) across
    # the observed demands with equal weights.
    ideal = fractional_fair_shares(
        demands,
        {t: 1.0 for t in demands},
        float(fair["total_goodput"]),  # type: ignore[arg-type]
    )
    ratios = {
        t: served[t] / ideal[t] for t in demands if ideal[t] > 0.0
    }
    jain = jain_index(list(ratios.values()))
    if jain < 0.9:
        failures.append(f"Jain index {jain:.4f} < 0.9")

    starved = sorted(
        t
        for t in demands
        if demands[t] > 0
        and (served[t] == 0 or served[t] < 0.8 * ideal[t])
    )
    if starved:
        failures.append(f"starved tenants under fair sharing: {starved}")

    noisy = fair_tenants.get(NOISY_TENANT, {})
    noisy_goodput = int(noisy.get("goodput", 0))
    noisy_ideal = ideal.get(NOISY_TENANT, 0.0)
    noisy_capped = (
        noisy_ideal > 0.0 and noisy_goodput <= 1.1 * noisy_ideal
    )
    if not noisy_capped:
        failures.append(
            f"noisy tenant uncapped: goodput {noisy_goodput} vs "
            f"ideal share {noisy_ideal:.1f}"
        )
    if int(noisy.get("shed", 0)) == 0:
        failures.append(
            "noisy tenant never shed — the point is not contended, so "
            "the cap gate is vacuous"
        )

    # A *quiet* tenant is one whose demand fits inside its max-min share
    # (water-filling satisfies it exactly): isolation promises those
    # tenants full service regardless of the noisy neighbour.  A tenant
    # demanding beyond its share is itself contending — fair sharing
    # legitimately serves it less than solo, and the Jain/floor gates
    # govern it instead.
    quiet_ok: Dict[str, bool] = {}
    global_breaks: Dict[str, bool] = {}
    global_tenants: Dict[str, Dict[str, object]] = global_mode["per_tenant"]  # type: ignore[assignment]
    for tenant in tenants:
        if tenant == NOISY_TENANT or tenant not in solo:
            continue
        if ideal.get(tenant, 0.0) < demands.get(tenant, 0) - 1e-9:
            continue  # over-share: not a quiet tenant at this point
        solo_goodput = int(solo[tenant]["per_tenant"][tenant]["goodput"])  # type: ignore[index]
        if solo_goodput == 0:
            continue
        fair_goodput = int(
            fair_tenants.get(tenant, {}).get("goodput", 0)
        )
        global_goodput = int(
            global_tenants.get(tenant, {}).get("goodput", 0)
        )
        quiet_ok[tenant] = fair_goodput >= 0.9 * solo_goodput
        global_breaks[tenant] = global_goodput < 0.9 * solo_goodput
    failed_quiet = sorted(t for t, ok in quiet_ok.items() if not ok)
    if failed_quiet:
        failures.append(
            f"quiet tenants below 90% of solo under fair sharing: "
            f"{failed_quiet}"
        )
    if global_breaks and not any(global_breaks.values()):
        failures.append(
            "global bucket kept every quiet tenant within 90% of solo — "
            "the isolation gate is vacuous"
        )

    deterministic = fair["digest"] == fair_repeat["digest"]
    if not deterministic:
        failures.append(
            f"fair replay not deterministic: {fair['digest']} vs "
            f"{fair_repeat['digest']}"
        )
    unaccounted = int(fair["unaccounted"]) + int(global_mode["unaccounted"])  # type: ignore[arg-type]
    if unaccounted:
        failures.append(f"{unaccounted} lookups unaccounted after drain")

    summary = {
        "jain": round(jain, 4),
        "ideal_shares": {t: round(ideal[t], 2) for t in sorted(ideal)},
        "satisfaction": {t: round(ratios[t], 4) for t in sorted(ratios)},
        "starved": starved,
        "noisy_capped": noisy_capped,
        "quiet_within_solo": {
            t: quiet_ok[t] for t in sorted(quiet_ok)
        },
        "global_breaks_isolation": {
            t: global_breaks[t] for t in sorted(global_breaks)
        },
        "deterministic": deterministic,
    }
    return summary, failures


def run_tenants(spec: ScenarioSpec, tracer=None, flight=None) -> ScenarioResult:
    """The full sweep: per trace-rate point, fair (x2 for the
    determinism digest) vs global vs per-tenant solo baselines.  Every
    failed gate of every point is a failure message."""
    model = TenantModel(spec.tenants, zipf_alpha=spec.tenant_zipf)
    tenants = [model.tenant_name(i) for i in range(spec.tenants)]
    points: List[float] = sorted(
        spec.tenant_rates or {spec.trace_rate, 1000.0}
    )
    sweep: List[Dict[str, object]] = []
    failures: List[str] = []
    for trace_rate in points:
        records, paths = spec.trace(ops_per_second=trace_rate, tenants=model)
        lookups = [record for record in records if record.op.is_lookup]
        rate_per_s = trace_rate * TENANT_RATE_FACTOR
        fair = replay_admission(spec, lookups, paths, rate_per_s, "fair")
        fair_repeat = replay_admission(
            spec, lookups, paths, rate_per_s, "fair"
        )
        global_mode = replay_admission(
            spec, lookups, paths, rate_per_s, "global"
        )
        solo: Dict[str, Dict[str, object]] = {}
        for tenant in tenants:
            mine = [r for r in lookups if r.tenant == tenant]
            if not mine:
                continue
            solo[tenant] = replay_admission(
                spec, mine, paths, rate_per_s, "fair"
            )
        gates, point_failures = _point_gates(
            tenants, fair, fair_repeat, global_mode, solo
        )
        failures.extend(
            f"rate {trace_rate:g}: {failure}" for failure in point_failures
        )
        sweep.append(
            {
                "trace_rate": trace_rate,
                "rate_per_s": rate_per_s,
                "lookups": len(lookups),
                "fair": fair,
                "global": global_mode,
                "solo_goodput": {
                    t: int(solo[t]["per_tenant"][t]["goodput"])  # type: ignore[index]
                    for t in sorted(solo)
                },
                "gates": gates,
            }
        )
    stats: Dict[str, object] = {
        "seed": spec.seed,
        "profile": spec.profile,
        "servers": spec.servers,
        "ops": spec.ops,
        "tenants": spec.tenants,
        "tenant_zipf": spec.tenant_zipf,
        "rate_factor": TENANT_RATE_FACTOR,
        "sweep": sweep,
        "failures": failures,
    }
    return ScenarioResult(stats, _render(stats), failures)


def _render(stats: Dict[str, object]) -> str:
    lines = [
        "== gateway tenant bench ==",
        f"workload                : {stats['profile']} x {stats['ops']} ops, "
        f"seed {stats['seed']}, {stats['tenants']} tenants "
        f"(zipf {stats['tenant_zipf']}), rate factor {stats['rate_factor']}",
    ]
    for point in stats["sweep"]:  # type: ignore[union-attr]
        gates: Dict[str, object] = point["gates"]
        fair: Dict[str, object] = point["fair"]
        lines.append(
            f"-- trace rate {point['trace_rate']:g}/s "
            f"(admission {point['rate_per_s']:g}/s, "
            f"{point['lookups']} lookups) --"
        )
        lines.append(
            f"jain index              : {gates['jain']:.4f}"
        )
        solo_goodput: Dict[str, int] = point["solo_goodput"]
        for tenant in sorted(fair["per_tenant"]):  # type: ignore[union-attr]
            fair_t = fair["per_tenant"][tenant]  # type: ignore[index]
            global_t = point["global"]["per_tenant"].get(tenant, {})
            lines.append(
                f"  {tenant:<6}: demand {fair_t['submitted']:>5}  "
                f"fair {fair_t['goodput']:>5} "
                f"(shed {fair_t['shed']}, p50 {fair_t['p50_ms']:.4f}ms)  "
                f"global {global_t.get('goodput', 0):>5}  "
                f"solo {solo_goodput.get(tenant, 0):>5}"
            )
        lines.append(
            f"noisy capped            : {gates['noisy_capped']}"
        )
        lines.append(
            f"quiet within solo       : {gates['quiet_within_solo']}"
        )
        lines.append(
            f"global breaks isolation : {gates['global_breaks_isolation']}"
        )
        lines.append(
            f"deterministic           : {gates['deterministic']} "
            f"(digest {fair['digest'][:16]}…)"
        )
    return "\n".join(lines)
