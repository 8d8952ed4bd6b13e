"""Unit tests for the SLO engine (`repro.obs.slo`)."""

import pytest

from repro.obs.export import SnapshotSeries
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import (
    DEFAULT_BURN_WINDOWS,
    CounterSelector,
    Objective,
    SLOEngine,
    default_objectives,
    render_slo_report,
    select,
)


def _registry_with_traffic(requests=200, shed=2):
    registry = MetricsRegistry()
    reqs = registry.counter(
        "gateway_requests_total", labels=("op", "tenant")
    )
    reqs.labels("lookup", "t0").inc(requests - 40)
    reqs.labels("lookup", "t1").inc(40)
    registry.counter("gateway_shed_total", labels=("cause",)).labels(
        "queue_full"
    ).inc(shed)
    return registry


class TestCounterSelector:
    def test_unfiltered_sum(self):
        registry = _registry_with_traffic()
        assert select("gateway_requests_total").family_sum(registry) == 200

    def test_filtered_sum(self):
        registry = _registry_with_traffic()
        selector = select("gateway_requests_total", tenant="t1")
        assert selector.family_sum(registry) == 40

    def test_absent_family_sums_to_zero(self):
        assert select("nope_total").family_sum(MetricsRegistry()) == 0.0

    def test_unknown_label_matches_nothing(self):
        registry = _registry_with_traffic()
        selector = select("gateway_requests_total", region="mars")
        assert selector.family_sum(registry) == 0.0

    def test_snapshot_sum_splits_joined_keys(self):
        registry = _registry_with_traffic()
        snapshot = registry.snapshot()
        selector = select("gateway_requests_total", op="lookup")
        assert selector.snapshot_sum(snapshot, ("op", "tenant")) == 200
        narrow = select("gateway_requests_total", tenant="t0")
        assert narrow.snapshot_sum(snapshot, ("op", "tenant")) == 160

    def test_snapshot_sum_absent_metric(self):
        assert select("nope_total").snapshot_sum({}, ()) == 0.0


class TestObjectiveValidation:
    def test_target_must_be_fractional(self):
        with pytest.raises(ValueError):
            Objective(
                "o", "d", target=1.0,
                bad=select("a"), total=select("b"),
            )

    def test_exactly_one_shape(self):
        with pytest.raises(ValueError):
            Objective("o", "d", target=0.9)  # neither shape
        with pytest.raises(ValueError):
            Objective(
                "o", "d", target=0.9,
                bad=select("a"), total=select("b"),
                latency_metric="h", threshold_ms=1.0,
            )

    def test_kind_and_budget(self):
        ratio = Objective(
            "r", "d", target=0.99, bad=select("a"), total=select("b")
        )
        assert ratio.kind == "ratio"
        assert ratio.budget == pytest.approx(0.01)
        latency = Objective(
            "l", "d", target=0.9, latency_metric="h", threshold_ms=1.0
        )
        assert latency.kind == "latency"


class TestRatioEvaluation:
    def test_lifetime_compliance(self):
        registry = _registry_with_traffic(requests=200, shed=2)
        engine = SLOEngine(
            registry,
            objectives=[
                Objective(
                    "avail", "d", target=0.999,
                    bad=select("gateway_shed_total"),
                    total=select("gateway_requests_total"),
                )
            ],
        )
        (result,) = engine.evaluate()
        assert result.total == 200 and result.bad == 2
        assert result.compliance == pytest.approx(0.99)
        assert not result.ok  # 99% < 99.9%
        assert result.budget_burned == pytest.approx(10.0)
        assert result.windows == []  # no series given
        assert not result.alerting

    def test_zero_traffic_is_vacuously_ok(self):
        engine = SLOEngine(MetricsRegistry())
        results = engine.evaluate()
        assert len(results) == len(default_objectives())
        assert all(r.ok for r in results)
        assert all(r.compliance == 1.0 for r in results)


class TestLatencyEvaluation:
    def _registry(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "gateway_lookup_latency_ms",
            labels=("tenant",),
            buckets=(1.0, 10.0),
        )
        for value in (0.1, 0.2, 0.5, 5.0):
            hist.labels("t0").observe(value)
        return registry

    def test_compliance_from_cumulative_buckets(self):
        engine = SLOEngine(
            self._registry(),
            objectives=[
                Objective(
                    "lat", "d", target=0.5,
                    latency_metric="gateway_lookup_latency_ms",
                    threshold_ms=1.0,
                )
            ],
        )
        (result,) = engine.evaluate()
        assert result.total == 4 and result.good == 3
        assert result.compliance == pytest.approx(0.75)
        assert result.ok

    def test_non_bucket_threshold_raises(self):
        engine = SLOEngine(
            self._registry(),
            objectives=[
                Objective(
                    "lat", "d", target=0.5,
                    latency_metric="gateway_lookup_latency_ms",
                    threshold_ms=2.5,
                )
            ],
        )
        with pytest.raises(ValueError, match="not a bucket bound"):
            engine.evaluate()


class TestBurnWindows:
    def test_multi_window_alert_from_snapshot_deltas(self):
        # budget 0.1; second interval runs at 50% errors -> burn 5x.
        registry = MetricsRegistry()
        total = registry.counter("req_total")
        bad = registry.counter("bad_total")
        series = SnapshotSeries()
        total.inc(100)
        series.append(0.0, registry.snapshot())
        total.inc(100)
        bad.inc(50)
        series.append(100.0, registry.snapshot())
        objective = Objective(
            "o", "d", target=0.9,
            bad=select("bad_total"), total=select("req_total"),
        )
        engine = SLOEngine(registry, objectives=[objective])
        (result,) = engine.evaluate(series=series)
        fast, slow = result.windows
        # Fast window (60s) baseline is the t=0 snapshot (the only one
        # at or before t=40): delta bad=50/total=100 -> burn 5x, below
        # the 14x factor.  The slow window has no baseline snapshot so
        # its delta is the whole run: bad=50/total=200 -> burn 2.5x.
        assert fast.window is DEFAULT_BURN_WINDOWS[0]
        assert fast.bad == 50 and fast.total == 100
        assert fast.burn_rate == pytest.approx(5.0)
        assert not fast.firing
        assert slow.burn_rate == pytest.approx(50 / 200 / 0.1)
        assert not result.alerting

    def test_alerting_requires_every_window_firing(self):
        registry = MetricsRegistry()
        total = registry.counter("req_total")
        bad = registry.counter("bad_total")
        series = SnapshotSeries()
        series.append(0.0, registry.snapshot())
        total.inc(100)
        bad.inc(100)  # 100% error rate, budget 0.05 -> burn 20x
        series.append(10.0, registry.snapshot())
        objective = Objective(
            "o", "d", target=0.95,
            bad=select("bad_total"), total=select("req_total"),
        )
        engine = SLOEngine(registry, objectives=[objective])
        (result,) = engine.evaluate(series=series)
        assert all(w.firing for w in result.windows)
        assert result.alerting
        assert "firing" in str(result.as_dict())

    def test_empty_window_delta_burns_nothing(self):
        registry = MetricsRegistry()
        registry.counter("req_total").inc(10)
        registry.counter("bad_total")
        series = SnapshotSeries()
        series.append(0.0, registry.snapshot())
        series.append(1000.0, registry.snapshot())
        objective = Objective(
            "o", "d", target=0.9,
            bad=select("bad_total"), total=select("req_total"),
        )
        engine = SLOEngine(registry, objectives=[objective])
        (result,) = engine.evaluate(series=series)
        fast = result.windows[0]
        assert fast.total == 0 and fast.burn_rate == 0.0
        assert not fast.firing


class TestReport:
    def test_render_contains_every_objective(self):
        registry = _registry_with_traffic()
        engine = SLOEngine(registry)
        report = render_slo_report(engine.evaluate())
        assert report.startswith("SLO report")
        for objective in default_objectives():
            assert objective.name in report
        assert "VIOLATED" in report  # availability at 99% misses 99.9%
        assert report.endswith("\n")

    def test_as_dict_round_trips_names(self):
        engine = SLOEngine(_registry_with_traffic())
        dumps = [r.as_dict() for r in engine.evaluate()]
        assert [d["name"] for d in dumps] == [
            o.name for o in default_objectives()
        ]
        assert all("compliance" in d and "windows" in d for d in dumps)


class TestSelectorSugar:
    def test_select_sorts_match_pairs(self):
        a = select("m", b="2", a="1")
        b = CounterSelector("m", (("a", "1"), ("b", "2")))
        assert a == b
