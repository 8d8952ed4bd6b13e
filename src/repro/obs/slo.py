"""Declarative SLOs over the metrics registry, with burn-rate alerts.

An :class:`Objective` names a service-level objective in terms of metric
families the components already register — no new instrumentation is
required to add one.  Two shapes cover the repo's surfaces:

- **ratio** objectives: a *bad*-event counter over a *total*-event
  counter (``gateway_shed_total / gateway_requests_total``).  Compliance
  is ``1 - bad/total``.
- **latency** objectives: a histogram family plus a threshold that must
  coincide with a bucket bound.  Compliance is the fraction of
  observations at or under the threshold, read straight from the
  cumulative buckets (exact, not reservoir-sampled).

:class:`SLOEngine` evaluates objectives two ways:

- **lifetime** compliance from the live registry — always available;
- **windowed burn rates** from a :class:`~repro.obs.export.SnapshotSeries`
  (the periodic registry snapshots its caller appends as it runs).  A
  burn rate of 1x means the error budget is being consumed exactly at
  the rate that exhausts it at the window's end; the classic
  multi-window rule fires an alert only when *every* window burns above
  its factor, so a brief spike (fast window only) or a slow bleed that
  has already stopped (slow window only) does not page.

Windowed burn is counter-only: registry snapshots store histogram
*summaries* (no buckets), so latency objectives reuse their lifetime
compliance for every window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.export import SnapshotSeries
from repro.obs.registry import (
    CounterFamily,
    HistogramFamily,
    MetricsRegistry,
)


@dataclass(frozen=True)
class CounterSelector:
    """Sum of one counter family, optionally filtered by label values.

    ``match`` is a tuple of ``(label_name, value)`` pairs; a child series
    is included when every pair matches.  An empty ``match`` sums the
    whole family.  A family absent from the registry sums to zero — an
    objective over a subsystem that never ran reports full compliance
    rather than crashing the report.
    """

    metric: str
    match: Tuple[Tuple[str, str], ...] = ()

    def family_sum(self, registry: MetricsRegistry) -> float:
        family = registry.get(self.metric)
        if not isinstance(family, CounterFamily):
            return 0.0
        if not self.match:
            return family.total()
        total = 0.0
        positions = _match_positions(family.label_names, self.match)
        for key, child in family.children():
            if all(key[i] == value for i, value in positions):
                total += child.value  # type: ignore[union-attr]
        return total

    def snapshot_sum(
        self, snapshot: Dict[str, Any], label_names: Tuple[str, ...]
    ) -> float:
        entry = snapshot.get(self.metric)
        if entry is None:
            return 0.0
        series: Dict[str, float] = entry["series"]  # type: ignore[index]
        if not self.match:
            return float(sum(series.values()))
        positions = _match_positions(label_names, self.match)
        total = 0.0
        for joined, value in series.items():
            key = tuple(joined.split("|")) if label_names else ()
            if len(key) == len(label_names) and all(
                key[i] == want for i, want in positions
            ):
                total += float(value)
        return total


def _match_positions(
    label_names: Tuple[str, ...], match: Tuple[Tuple[str, str], ...]
) -> List[Tuple[int, str]]:
    positions: List[Tuple[int, str]] = []
    for name, value in match:
        if name in label_names:
            positions.append((label_names.index(name), value))
        else:
            # Unknown label: nothing can match — poison the filter.
            positions.append((-1, value))
    return positions


def select(metric: str, **match: str) -> CounterSelector:
    """Sugar: ``select("gateway_shed_total", cause="queue_full")``."""
    return CounterSelector(metric, tuple(sorted(match.items())))


@dataclass(frozen=True)
class Objective:
    """One declarative SLO.

    Exactly one of the two shapes must be populated:

    - ratio: ``bad`` and ``total`` selectors;
    - latency: ``latency_metric`` and ``threshold_ms`` (the threshold
      must be one of the family's bucket bounds, checked at evaluation).
    """

    name: str
    description: str
    target: float  # fraction of good events, e.g. 0.999
    bad: Optional[CounterSelector] = None
    total: Optional[CounterSelector] = None
    latency_metric: Optional[str] = None
    threshold_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not (0.0 < self.target < 1.0):
            raise ValueError(f"{self.name}: target must be in (0, 1)")
        ratio = self.bad is not None and self.total is not None
        latency = (
            self.latency_metric is not None and self.threshold_ms is not None
        )
        if ratio == latency:
            raise ValueError(
                f"{self.name}: exactly one of (bad+total) or "
                f"(latency_metric+threshold_ms) must be set"
            )

    @property
    def kind(self) -> str:
        return "latency" if self.latency_metric is not None else "ratio"

    @property
    def budget(self) -> float:
        """The error budget: the tolerated fraction of bad events."""
        return 1.0 - self.target


@dataclass(frozen=True)
class BurnWindow:
    """One burn-rate alert window.

    ``factor`` is the burn-rate multiple at which this window fires: a
    fast/short window uses a high factor (only a severe burn pages
    quickly), a slow/long window a low one (a sustained moderate burn
    eventually pages).
    """

    name: str
    window_s: float
    factor: float


#: Classic two-window policy, scaled to the harnesses' short virtual
#: runs: the fast window catches budget-torching incidents, the slow
#: window sustained bleeds; an alert requires both.
DEFAULT_BURN_WINDOWS: Tuple[BurnWindow, ...] = (
    BurnWindow("fast", 60.0, 14.0),
    BurnWindow("slow", 600.0, 6.0),
)


@dataclass
class WindowBurn:
    window: BurnWindow
    bad: float
    total: float
    burn_rate: float
    firing: bool

    def as_dict(self) -> Dict[str, Any]:
        return {
            "window": self.window.name,
            "window_s": self.window.window_s,
            "bad": self.bad,
            "total": self.total,
            "burn_rate": round(self.burn_rate, 6),
            "factor": self.window.factor,
            "firing": self.firing,
        }


@dataclass
class SLOResult:
    """The verdict for one objective."""

    objective: Objective
    good: float
    bad: float
    total: float
    compliance: float
    budget_burned: float  # fraction of lifetime error budget consumed
    windows: List[WindowBurn] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.compliance >= self.objective.target or self.total == 0

    @property
    def alerting(self) -> bool:
        """Multi-window AND: every window burning above its factor."""
        return bool(self.windows) and all(w.firing for w in self.windows)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.objective.name,
            "kind": self.objective.kind,
            "target": self.objective.target,
            "good": self.good,
            "bad": self.bad,
            "total": self.total,
            "compliance": round(self.compliance, 6),
            "budget_burned": round(self.budget_burned, 6),
            "ok": self.ok,
            "alerting": self.alerting,
            "windows": [w.as_dict() for w in self.windows],
        }


class SLOEngine:
    """Evaluates objectives against a registry (and optional snapshots)."""

    def __init__(
        self,
        registry: MetricsRegistry,
        objectives: Optional[Sequence[Objective]] = None,
    ) -> None:
        self.registry = registry
        self.objectives: Tuple[Objective, ...] = tuple(
            default_objectives() if objectives is None else objectives
        )
        self.windows: Tuple[BurnWindow, ...] = DEFAULT_BURN_WINDOWS

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, series: Optional[SnapshotSeries] = None) -> List[SLOResult]:
        """One :class:`SLOResult` per objective, in declaration order.

        When ``series`` is given, counter objectives additionally get
        per-window burn rates computed from snapshot deltas, each window
        ending at the newest snapshot.
        """
        results = []
        for objective in self.objectives:
            if objective.kind == "latency":
                result = self._evaluate_latency(objective)
            else:
                result = self._evaluate_ratio(objective, series)
            results.append(result)
        return results

    def _evaluate_ratio(
        self,
        objective: Objective,
        series: Optional[SnapshotSeries],
    ) -> SLOResult:
        assert objective.bad is not None and objective.total is not None
        bad = objective.bad.family_sum(self.registry)
        total = objective.total.family_sum(self.registry)
        result = self._make_result(objective, bad, total)
        if series is not None and len(series) >= 1:
            result.windows = self._window_burns(objective, series)
        return result

    def _evaluate_latency(self, objective: Objective) -> SLOResult:
        assert objective.latency_metric is not None
        assert objective.threshold_ms is not None
        family = self.registry.get(objective.latency_metric)
        good = 0.0
        total = 0.0
        if isinstance(family, HistogramFamily):
            if objective.threshold_ms not in family.buckets:
                raise ValueError(
                    f"{objective.name}: threshold {objective.threshold_ms} "
                    f"is not a bucket bound of {objective.latency_metric} "
                    f"{family.buckets}"
                )
            for _key, child in family.children():
                for bound, cumulative in child.cumulative_buckets():
                    if bound == objective.threshold_ms:
                        good += cumulative
                        break
                total += child.count  # type: ignore[union-attr]
        result = self._make_result(
            objective, bad=total - good, total=total
        )
        # Snapshots carry no buckets: windowed latency burn reuses the
        # lifetime rate so the report still shows the window columns.
        return result

    def _make_result(
        self, objective: Objective, bad: float, total: float
    ) -> SLOResult:
        compliance = 1.0 if total <= 0 else max(0.0, 1.0 - bad / total)
        burned = 0.0
        if total > 0 and objective.budget > 0:
            burned = (bad / total) / objective.budget
        return SLOResult(
            objective=objective,
            good=total - bad,
            bad=bad,
            total=total,
            compliance=compliance,
            budget_burned=burned,
        )

    def _window_burns(
        self,
        objective: Objective,
        series: SnapshotSeries,
    ) -> List[WindowBurn]:
        assert objective.bad is not None and objective.total is not None
        bad_labels = self._label_names(objective.bad.metric)
        total_labels = self._label_names(objective.total.metric)
        now, end_snapshot = series.snapshots[-1]
        burns: List[WindowBurn] = []
        for window in self.windows:
            start = self._baseline(series, now - window.window_s)
            bad_delta = objective.bad.snapshot_sum(end_snapshot, bad_labels)
            total_delta = objective.total.snapshot_sum(
                end_snapshot, total_labels
            )
            if start is not None:
                bad_delta -= objective.bad.snapshot_sum(start, bad_labels)
                total_delta -= objective.total.snapshot_sum(
                    start, total_labels
                )
            error_rate = 0.0 if total_delta <= 0 else bad_delta / total_delta
            burn = (
                error_rate / objective.budget if objective.budget > 0 else 0.0
            )
            burns.append(
                WindowBurn(
                    window=window,
                    bad=bad_delta,
                    total=total_delta,
                    burn_rate=burn,
                    firing=burn >= window.factor,
                )
            )
        return burns

    def _label_names(self, metric: str) -> Tuple[str, ...]:
        family = self.registry.get(metric)
        return family.label_names if family is not None else ()

    @staticmethod
    def _baseline(
        series: SnapshotSeries, cutoff: float
    ) -> Optional[Dict[str, Any]]:
        """Newest snapshot at or before ``cutoff`` (None: window covers
        the whole run, so the delta baseline is all-zeros)."""
        best: Optional[Dict[str, Any]] = None
        for time_s, snapshot in series.snapshots:
            if time_s <= cutoff:
                best = snapshot
            else:
                break
        return best


# ----------------------------------------------------------------------
# The repo's default objectives
# ----------------------------------------------------------------------


def default_objectives() -> Tuple[Objective, ...]:
    """The gateway pipeline's standing objectives.

    Every referenced family is registered by the gateway/cohort/
    write-back components; families absent from a given run (e.g. no
    staleness auditor attached) evaluate as fully compliant.
    """
    return (
        Objective(
            name="gateway-availability",
            description="Requests not shed by admission control.",
            target=0.999,
            bad=select("gateway_shed_total"),
            total=select("gateway_requests_total"),
        ),
        Objective(
            name="gateway-lookup-latency",
            description="Answered lookups completing within 1 ms.",
            target=0.99,
            latency_metric="gateway_lookup_latency_ms",
            threshold_ms=1.0,
        ),
        Objective(
            name="writeback-durability",
            description="Buffered mutations not declared lost.",
            target=0.9999,
            bad=select("gateway_writeback_lost_total"),
            total=select("gateway_writeback_enqueued_total"),
        ),
        Objective(
            name="cohort-staleness",
            description="Audited reads within the cohort staleness bound.",
            target=0.999,
            bad=select("gateway_staleness_violations_total"),
            total=select("gateway_staleness_audited_total"),
        ),
    )


def replication_objectives() -> Tuple[Objective, ...]:
    """Standing objectives for cross-cluster replication.

    Kept separate from :func:`default_objectives` — replication runs in
    its own drill/fleet harnesses, and gateway-only runs should not
    carry (vacuously compliant) replication rows in their SLO reports.
    The lag threshold must be a ``LAG_BUCKETS_MS`` bucket bound
    (:mod:`repro.replication.controller`).
    """
    return (
        Objective(
            name="replication-ship-lag",
            description="Acked entries replicated within 1 virtual second.",
            target=0.99,
            latency_metric="replication_ship_lag_ms",
            threshold_ms=1000.0,
        ),
        Objective(
            name="replication-ship-availability",
            description="REPL_SHIP batches not lost past the retry budget.",
            target=0.99,
            bad=select("replication_ship_failures_total"),
            total=select("replication_ships_total"),
        ),
    )


# ----------------------------------------------------------------------
# Report rendering
# ----------------------------------------------------------------------


def render_slo_report(results: Sequence[SLOResult]) -> str:
    """Fixed-width text report (deterministic for a given evaluation)."""
    lines = ["SLO report", "=========="]
    for result in results:
        objective = result.objective
        status = "OK" if result.ok else "VIOLATED"
        if result.alerting:
            status += " [ALERT]"
        lines.append("")
        lines.append(f"{objective.name} ({objective.kind})  {status}")
        lines.append(f"  {objective.description}")
        lines.append(
            f"  target {objective.target:.4%}  "
            f"compliance {result.compliance:.4%}  "
            f"bad/total {result.bad:g}/{result.total:g}  "
            f"budget burned {result.budget_burned:.2f}x"
        )
        for burn in result.windows:
            flag = "FIRING" if burn.firing else "quiet"
            lines.append(
                f"  window {burn.window.name:<5} {burn.window.window_s:>6.0f}s"
                f"  burn {burn.burn_rate:>8.2f}x"
                f"  (fires >= {burn.window.factor:g}x)  {flag}"
            )
    return "\n".join(lines) + "\n"
