"""Staleness auditing for distributed gateway cohorts.

The cohort protocol's correctness claim is a *window*, not perfection:
a cache-served read may disagree with the fleet, but only within
:attr:`~repro.gateway.cohort.CohortConfig.staleness_bound_s` of the
mutation that invalidated it.  :class:`StalenessAuditor` checks exactly
that claim:

- the harness reports every mutation (``note_mutation``) as it is issued;
- every gateway response is audited (``audit``) against the cluster's
  live state at read time;
- a cache-served answer that disagrees with the fleet is a *stale read*;
  its staleness is ``read time - last invalidating mutation``.  Stale
  reads within the bound are expected (that is the window the protocol
  trades for traffic); beyond it they are **violations**.

A stale read with *no* invalidating mutation on record is always a
violation (infinite staleness) — the cache returned data that was never
true, which no propagation delay can excuse.

The auditor deliberately lives in ``src`` rather than ``tests``: the
``python -m repro.gateway bench --cohort N`` harness uses the same
checker, so the bench's "zero staleness-bound violations" line and the
test suite's assertion cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.gateway.backend import MetadataBackend
from repro.gateway.client import GatewayResponse, Outcome
from repro.metadata.namespace import is_under
from repro.obs.registry import percentile


@dataclass(frozen=True)
class MutationStamp:
    """One recorded mutation: what it invalidates, and when."""

    time: float
    op: str  # "create" | "delete" | "rename"
    path: str
    new_path: str = ""

    def invalidates(self, path: str) -> bool:
        if self.op == "rename":
            return is_under(path, self.path) or is_under(path, self.new_path)
        return path == self.path


@dataclass(frozen=True)
class StaleRead:
    """One audited cache answer that disagreed with the fleet."""

    path: str
    read_time: float
    mutation_time: Optional[float]  # None: stale with no mutation on record
    gateway_id: Optional[int] = None

    @property
    def staleness_s(self) -> float:
        if self.mutation_time is None:
            return float("inf")
        return self.read_time - self.mutation_time


@dataclass
class AuditStats:
    audited: int = 0
    cache_served: int = 0
    stale: int = 0
    violations: int = 0
    staleness_samples: List[float] = field(default_factory=list)

    @property
    def max_staleness_s(self) -> float:
        return max(self.staleness_samples, default=0.0)


def matches_fleet(cluster: MetadataBackend, response: GatewayResponse) -> bool:
    """Does a cache-served answer agree with the live fleet right now
    (same home and record, or absent on both sides)?"""
    live_home = cluster.home_of(response.path)
    if response.outcome is Outcome.NEGATIVE_HIT or response.home_id is None:
        return live_home is None
    if live_home != response.home_id:
        return False
    return cluster.record_at(live_home, response.path) == response.record


class StalenessAuditor:
    """Checks every gateway answer against the live fleet and the bound.

    Parameters
    ----------
    cluster:
        Ground truth.  Mutations apply to it synchronously, so its state
        at read time *is* the correct answer.
    bound_s:
        The staleness window; a stale read older than this is a
        violation.  Pass ``CohortConfig.staleness_bound_s``.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; audited
        reads and violations become ``gateway_staleness_*`` counters the
        SLO engine can evaluate.
    flight:
        Optional :class:`~repro.obs.flight.FlightRecorderHub`; the first
        violation of a run dumps every component's recent events (the
        forensic snapshot the harness attaches to a red result).
    """

    def __init__(
        self,
        cluster: MetadataBackend,
        bound_s: float,
        metrics=None,
        flight=None,
    ) -> None:
        if bound_s <= 0:
            raise ValueError(f"bound_s must be positive, got {bound_s}")
        self.cluster = cluster
        self.bound_s = bound_s
        self.mutations: List[MutationStamp] = []
        self.stats = AuditStats()
        self.stale_reads: List[StaleRead] = []
        self.violating_reads: List[StaleRead] = []
        self.flight = flight
        self._audited_counter = None
        self._violations_counter = None
        if metrics is not None:
            self._audited_counter = metrics.counter(
                "gateway_staleness_audited_total",
                "Gateway answers checked against the live fleet.",
            )
            self._violations_counter = metrics.counter(
                "gateway_staleness_violations_total",
                "Cache-served reads staler than the cohort bound.",
            )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def note_mutation(
        self, op: str, path: str, now: float, new_path: str = ""
    ) -> None:
        if op not in ("create", "delete", "rename"):
            raise ValueError(f"unknown mutation op {op!r}")
        self.mutations.append(
            MutationStamp(time=now, op=op, path=path, new_path=new_path)
        )

    def last_invalidating(self, path: str, before: float) -> Optional[float]:
        """Time of the newest mutation (<= ``before``) affecting ``path``."""
        newest: Optional[float] = None
        for stamp in self.mutations:
            if stamp.time <= before and stamp.invalidates(path):
                if newest is None or stamp.time > newest:
                    newest = stamp.time
        return newest

    # ------------------------------------------------------------------
    # Auditing
    # ------------------------------------------------------------------
    def audit(
        self,
        response: GatewayResponse,
        now: float,
        gateway_id: Optional[int] = None,
    ) -> Optional[StaleRead]:
        """Audit one response; returns the :class:`StaleRead` if stale.

        Backend-served answers are tallied but never stale — mutations
        are synchronous at the fleet.  Shed/queued responses carry no
        data and are skipped.
        """
        if not response.outcome.is_answer:
            return None
        self.stats.audited += 1
        if self._audited_counter is not None:
            self._audited_counter.inc()
        if not response.from_cache:
            return None
        self.stats.cache_served += 1
        if matches_fleet(self.cluster, response):
            return None
        stale = StaleRead(
            path=response.path,
            read_time=now,
            mutation_time=self.last_invalidating(response.path, now),
            gateway_id=gateway_id,
        )
        self.stats.stale += 1
        self.stale_reads.append(stale)
        if stale.staleness_s <= self.bound_s:
            self.stats.staleness_samples.append(stale.staleness_s)
        else:
            self.stats.violations += 1
            self.violating_reads.append(stale)
            if self._violations_counter is not None:
                self._violations_counter.inc()
            if self.flight is not None and self.stats.violations == 1:
                # One forensic dump per run: the first violation carries
                # the events that led here; later ones add only noise.
                self.flight.dump(
                    f"staleness-violation-{response.path}", now
                )
            if stale.mutation_time is not None:
                self.stats.staleness_samples.append(stale.staleness_s)
        return stale

    # ------------------------------------------------------------------
    # Verdict
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return self.stats.violations == 0

    def summary(self) -> Dict[str, object]:
        stats = self.stats
        return {
            "bound_s": round(self.bound_s, 4),
            "audited": stats.audited,
            "cache_served": stats.cache_served,
            "stale_reads": stats.stale,
            "violations": stats.violations,
            "staleness_p50_s": round(percentile(stats.staleness_samples, 50), 4),
            "staleness_p99_s": round(percentile(stats.staleness_samples, 99), 4),
            "staleness_max_s": round(stats.max_staleness_s, 4),
        }

    def __repr__(self) -> str:
        return (
            f"StalenessAuditor(bound={self.bound_s:.3f}s, "
            f"stale={self.stats.stale}, violations={self.stats.violations})"
        )
