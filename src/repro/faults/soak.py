"""Chaos soak: drive a prototype cluster through a seeded fault schedule.

The soak is the fault layer's end-to-end proof: a threaded
:class:`~repro.prototype.cluster.PrototypeCluster` serves a deterministic
lookup workload while a :class:`~repro.faults.injector.PlanFaultInjector`
drops, delays, duplicates and partitions its messages and the driver
executes the plan's crash/restore events (checkpointing the victim's
state through :mod:`repro.core.checkpoint`).  Every lookup outcome is
classified against the ground-truth placement map, and the retry/drop
counters are reconciled, yielding a :class:`SoakReport` — the survival
report printed by ``python -m repro.faults soak``.

Determinism: time is *virtual* (``ops = duration_s * OPS_PER_S``
sequential lookups, each advancing the clock by ``1/OPS_PER_S``), every
random draw comes from a seeded RNG, and node replies bypass the
injector, so the same config produces a bit-identical report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.faults.injector import NULL_INJECTOR, PlanFaultInjector
from repro.faults.plan import CrashEvent, FaultPlan, Partition
from repro.sim.rng import make_rng

#: Every k-th op of the workload queries a path that does not exist.
NEGATIVE_EVERY = 8
#: The cluster: nodes, and lookups per virtual second.
NUM_NODES = 8
OPS_PER_S = 50.0
#: The share of sends the plan drops, delays and duplicates.
DROP_RATE = 0.05
DELAY_RATE = 0.10
DUPLICATE_RATE = 0.02


@dataclass(frozen=True)
class SoakConfig:
    """Tunables of one chaos soak run.

    ``duration_s`` is virtual seconds: the run always executes
    ``round(duration_s * OPS_PER_S)`` lookups, regardless of wall clock.
    """

    seed: int = 7
    duration_s: float = 5.0
    num_files: int = 240

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if self.num_files < 1:
            raise ValueError(f"num_files must be >= 1, got {self.num_files}")


@dataclass
class SoakReport:
    """What survived the chaos — and the accounting that proves it.

    A *lost* query raised out of the lookup protocol; a *false negative*
    resolved NEGATIVE although the home node was alive and the lookup saw
    no fault.  Both must be zero for the soak to pass.  ``unavailable``
    counts queries whose home was crashed or cut off — legitimate
    degradation, not loss.
    """

    config: SoakConfig
    ops: int = 0
    found_clean: int = 0
    found_degraded: int = 0
    misrouted: int = 0
    true_negatives: int = 0
    unavailable: int = 0
    false_negatives: int = 0
    lost: int = 0
    degraded_total: int = 0
    by_level: Dict[str, int] = field(default_factory=dict)
    mean_latency_ms: float = 0.0
    messages_sent: int = 0
    retries: int = 0
    exhausted: int = 0
    injected: Dict[str, int] = field(default_factory=dict)
    dropped_requests: int = 0
    reconciled: bool = True
    events: List[Tuple[float, str, int]] = field(default_factory=list)

    @property
    def availability(self) -> float:
        """Fraction of queries answered correctly or degraded-correctly."""
        if self.ops == 0:
            return 1.0
        bad = self.lost + self.false_negatives + self.misrouted
        return 1.0 - bad / self.ops

    @property
    def failures(self) -> List[str]:
        """One message per failed gate (none: the soak passed)."""
        counts = (
            ("lost queries", self.lost),
            ("false negatives", self.false_negatives),
            ("misrouted", self.misrouted),
        )
        return [f"{n} {what}" for what, n in counts if n] + (
            [] if self.reconciled else ["retry/drop ledger does not reconcile"]
        )

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dump (used by the determinism tests and the CLI)."""
        return {
            "seed": self.config.seed,
            "duration_s": self.config.duration_s,
            "num_nodes": NUM_NODES,
            "ops": self.ops,
            "found_clean": self.found_clean,
            "found_degraded": self.found_degraded,
            "misrouted": self.misrouted,
            "true_negatives": self.true_negatives,
            "unavailable": self.unavailable,
            "false_negatives": self.false_negatives,
            "lost": self.lost,
            "degraded_total": self.degraded_total,
            "by_level": dict(sorted(self.by_level.items())),
            "mean_latency_ms": round(self.mean_latency_ms, 6),
            "messages_sent": self.messages_sent,
            "retries": self.retries,
            "exhausted": self.exhausted,
            "injected": dict(sorted(self.injected.items())),
            "dropped_requests": self.dropped_requests,
            "reconciled": self.reconciled,
            "availability": round(self.availability, 6),
            "events": [list(event) for event in self.events],
            "passed": self.passed,
        }

    def render(self) -> str:
        """The human-readable survival report."""
        lines = [
            "chaos soak survival report",
            f"  seed={self.config.seed} nodes={NUM_NODES} "
            f"duration={self.config.duration_s}s ops={self.ops} "
            f"drop={DROP_RATE:.0%}",
            f"  availability        {self.availability:.4%}",
            f"  found (clean)       {self.found_clean}",
            f"  found (degraded)    {self.found_degraded}",
            f"  true negatives      {self.true_negatives}",
            f"  unavailable (home down/cut)  {self.unavailable}",
            f"  false negatives     {self.false_negatives}",
            f"  misrouted           {self.misrouted}",
            f"  lost (raised)       {self.lost}",
            f"  degraded lookups    {self.degraded_total}",
            f"  mean latency        {self.mean_latency_ms:.3f} ms (virtual)",
            f"  wire messages       {self.messages_sent}",
            "  by level            "
            + " ".join(f"{k}={v}" for k, v in sorted(self.by_level.items())),
            "  injected            "
            + " ".join(f"{k}={v}" for k, v in sorted(self.injected.items()) if v),
            f"  retry reconciliation: dropped_requests={self.dropped_requests} "
            f"== retries={self.retries} + exhausted={self.exhausted} "
            f"-> {'ok' if self.reconciled else 'BROKEN'}",
        ]
        for at_s, kind, node_id in self.events:
            lines.append(f"  t={at_s:7.3f}s  {kind:<7s} node {node_id}")
        lines.append("  verdict: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def build_plan(config: SoakConfig, groups: Dict[int, List[int]]) -> FaultPlan:
    """Derive the fault schedule for ``config`` from the cluster layout.

    Drops, delays and duplicates at the module's rates, one crash/restart
    mid-run (the victim derived from the seed, so the whole schedule is
    reproducible data) and a partition that isolates the first group (when
    there is more than one).
    """
    node_ids = sorted(nid for members in groups.values() for nid in members)
    crashes = (
        CrashEvent(
            at_s=config.duration_s * 0.4,
            node_id=node_ids[config.seed % len(node_ids)],
            restore_at_s=config.duration_s * 0.7,
        ),
    )
    partitions: Tuple[Partition, ...] = ()
    if len(groups) > 1:
        island = frozenset(groups[min(groups)])
        partitions = (
            Partition(
                start_s=config.duration_s * 0.15,
                end_s=config.duration_s * 0.35,
                island=island,
            ),
        )
    return FaultPlan(
        seed=config.seed,
        drop_rate=DROP_RATE,
        delay_rate=DELAY_RATE,
        duplicate_rate=DUPLICATE_RATE,
        crashes=crashes,
        partitions=partitions,
    )


def run_soak(config: SoakConfig, tracer=None, flight=None) -> SoakReport:
    """Run one chaos soak; deterministic for a given ``config``.

    ``tracer`` (a :class:`~repro.obs.trace.CollectingTracer`) records one
    span per lookup with the causal context threaded onto every protocol
    message; ``flight`` (a :class:`~repro.obs.flight.FlightRecorderHub`)
    is dumped automatically at each crash.  Both default off and leave
    the report bit-identical.
    """
    # Imported here: the faults package must stay importable from the
    # transport layer without dragging the cluster modules in circularly.
    from repro.core.config import GHBAConfig
    from repro.prototype.cluster import PrototypeCluster

    cluster = PrototypeCluster(
        NUM_NODES,
        GHBAConfig(seed=config.seed),
        seed=config.seed,
        tracer=tracer,
        flight=flight,
    )
    report = SoakReport(config=config)
    try:
        # Ground truth is populated fault-free; the injector goes live
        # only for the query phase.
        paths = [f"/soak/f{i:05d}" for i in range(config.num_files)]
        ground_truth = cluster.populate(paths, policy="random")
        plan = build_plan(config, cluster.groups)
        injector = PlanFaultInjector(
            plan, metrics=cluster.metrics, flight=flight
        )
        cluster.transport.injector = injector

        events: List[Tuple[float, str, int]] = []
        for crash in plan.crashes:
            events.append((crash.at_s, "crash", crash.node_id))
            if crash.restore_at_s is not None:
                events.append((crash.restore_at_s, "restore", crash.node_id))
        events.sort()

        ops = int(round(config.duration_s * OPS_PER_S))
        dt = 1.0 / OPS_PER_S
        workload_rng = make_rng(config.seed ^ 0xC0FFEE)
        latency_sum = 0.0

        for op in range(ops):
            now = op * dt
            injector.advance(now)
            while events and events[0][0] <= now:
                at_s, kind, node_id = events.pop(0)
                if kind == "crash":
                    cluster.crash_node(node_id)
                else:
                    cluster.restore_node(node_id)
                report.events.append((at_s, kind, node_id))
            if op % NEGATIVE_EVERY == NEGATIVE_EVERY - 1:
                path = f"/soak/missing{op:05d}"
            else:
                path = paths[workload_rng.randrange(len(paths))]
            expected = ground_truth.get(path)
            try:
                outcome = cluster.lookup(path, vtime=now)
            except Exception:
                report.lost += 1
                continue
            report.ops += 1
            latency_sum += outcome.latency_ms
            level = outcome.level.label
            report.by_level[level] = report.by_level.get(level, 0) + 1
            if outcome.degraded:
                report.degraded_total += 1
            if outcome.found:
                if outcome.home_id != expected:
                    report.misrouted += 1
                elif outcome.degraded:
                    report.found_degraded += 1
                else:
                    report.found_clean += 1
            elif expected is None:
                report.true_negatives += 1
            elif expected in cluster._crashed or outcome.degraded:
                # The home was down or cut off — degraded availability,
                # not a correctness failure.
                report.unavailable += 1
            else:
                report.false_negatives += 1

        report.ops += report.lost  # lost ops still count toward the total
        report.mean_latency_ms = (
            latency_sum / max(1, report.ops - report.lost)
        )
        # Counter reconciliation: every dropped request-path send is paid
        # for by exactly one retry or one exhaustion.
        report.messages_sent = cluster.transport.messages_sent
        report.retries = cluster.transport.retries
        report.exhausted = cluster.transport.exhausted
        report.injected = dict(injector.counts)
        report.dropped_requests = injector.dropped_requests
        report.reconciled = (
            report.dropped_requests == report.retries + report.exhausted
        )
    finally:
        # Quiet the injector so shutdown STOPs are not dropped.
        cluster.transport.injector = NULL_INJECTOR
        cluster.shutdown()
    return report
