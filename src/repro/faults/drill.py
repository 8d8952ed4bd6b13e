"""Failure-detection drills: measure heartbeat detection latency.

A drill replays a :class:`~repro.faults.plan.FaultPlan`'s crash schedule
against the simulator's :class:`~repro.core.failure.HeartbeatMonitor`:
each victim goes silent at its scheduled time (and is marked silenced on
the fault injector, so degraded queries and detection share one notion of
"down"), and the drill records when the group peers declared it failed.

The paper's bound (Section 4.5): a silent MDS is detected within
``HEARTBEAT_TIMEOUT_S`` plus at most one check interval after its last
heartbeat.  :attr:`DrillReport.bound_s` adds one more interval of slack
for the beat/check round alignment; the drill asserts every detection
lands inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.faults.injector import PlanFaultInjector
from repro.faults.plan import CrashEvent, FaultPlan


@dataclass
class DrillResult:
    """Detection outcome for one scheduled crash."""

    node_id: int
    crashed_at_s: float
    detected_at_s: Optional[float] = None
    detected_by: Optional[int] = None

    @property
    def detected(self) -> bool:
        return self.detected_at_s is not None

    @property
    def detection_latency_s(self) -> Optional[float]:
        if self.detected_at_s is None:
            return None
        return self.detected_at_s - self.crashed_at_s


@dataclass
class DrillReport:
    """All drill outcomes plus the latency bound they must respect."""

    bound_s: float
    results: List[DrillResult] = field(default_factory=list)
    heartbeats_sent: int = 0

    @property
    def all_detected(self) -> bool:
        return all(result.detected for result in self.results)

    @property
    def within_bound(self) -> bool:
        return self.all_detected and all(
            result.detection_latency_s <= self.bound_s
            for result in self.results
        )

    def render(self) -> str:
        lines = [
            f"heartbeat detection drill (bound {self.bound_s:.2f}s, "
            f"{self.heartbeats_sent} heartbeats)"
        ]
        for result in self.results:
            if result.detected:
                lines.append(
                    f"  node {result.node_id}: crashed t={result.crashed_at_s:.2f}s, "
                    f"detected t={result.detected_at_s:.2f}s by node "
                    f"{result.detected_by} "
                    f"(latency {result.detection_latency_s:.2f}s)"
                )
            else:
                lines.append(
                    f"  node {result.node_id}: crashed "
                    f"t={result.crashed_at_s:.2f}s, NOT DETECTED"
                )
        lines.append(
            "  verdict: " + ("PASS" if self.within_bound else "FAIL")
        )
        return "\n".join(lines)


def default_drill_plan(seed: int, num_servers: int) -> FaultPlan:
    """Two seed-derived victims, crashed one after the other."""
    first = seed % num_servers
    second = (first + num_servers // 2) % num_servers
    crashes = [CrashEvent(at_s=1.0, node_id=first)]
    if second != first:
        crashes.append(CrashEvent(at_s=2.5, node_id=second))
    return FaultPlan(seed=seed, crashes=tuple(crashes))


def run_drill(num_servers: int = 9, seed: int = 0) -> DrillReport:
    """Run a detection drill; deterministic for given arguments."""
    from repro.core.cluster import GHBACluster
    from repro.core.config import GHBAConfig
    from repro.core import failure

    cfg = GHBAConfig(seed=seed)
    plan = default_drill_plan(seed, num_servers)
    injector = PlanFaultInjector(plan)
    cluster = GHBACluster(num_servers, cfg, seed=seed, faults=injector)
    monitor = failure.HeartbeatMonitor(cluster)
    for crash in plan.crashes:
        # A round due at the crash instant runs before the crash.
        monitor.advance(crash.at_s)
        injector.advance(crash.at_s)
        injector.silence(crash.node_id)
        monitor.crash(crash.node_id)

    last_crash = max(crash.at_s for crash in plan.crashes)
    monitor.advance(
        last_crash + failure.HEARTBEAT_TIMEOUT_S + 3 * failure.HEARTBEAT_INTERVAL_S
    )

    detections = {event.server_id: event for event in monitor.failures}
    bound = failure.HEARTBEAT_TIMEOUT_S + 2 * failure.HEARTBEAT_INTERVAL_S
    report = DrillReport(bound_s=bound, heartbeats_sent=monitor.heartbeats_sent)
    for crash in plan.crashes:
        result = DrillResult(node_id=crash.node_id, crashed_at_s=crash.at_s)
        event = detections.get(crash.node_id)
        if event is not None:
            result.detected_at_s = event.detected_at
            result.detected_by = event.detected_by
        report.results.append(result)
    return report
