"""Unit tests for the metrics registry (`repro.obs.registry`)."""

import math

import pytest

from repro.obs.export import prometheus_exposition
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    MetricError,
    MetricsRegistry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounters:
    def test_unlabeled_counter_proxy(self, registry):
        counter = registry.counter("x_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_labeled_children_independent(self, registry):
        family = registry.counter("q_total", labels=("level",))
        family.labels("L1").inc(3)
        family.labels("L2").inc()
        assert family.get("L1") == 3
        assert family.get("L2") == 1
        assert family.get("L3") == 0.0  # no child created
        assert len(family) == 2

    def test_child_caching(self, registry):
        family = registry.counter("c_total", labels=("server",))
        assert family.labels(7) is family.labels("7")

    def test_counters_only_go_up(self, registry):
        with pytest.raises(MetricError):
            registry.counter("d_total").inc(-1)

    def test_legacy_tally_views(self, registry):
        family = registry.counter("lv_total", labels=("level",))
        family.labels("L1").inc(3)
        family.labels("L2").inc(1)
        assert family.as_dict() == {"L1": 3, "L2": 1}
        assert family.total() == 4
        fractions = family.fractions()
        assert fractions["L1"] == pytest.approx(0.75)
        assert registry.counter("empty_total", labels=("x",)).fractions() == {}

    def test_wrong_label_arity_rejected(self, registry):
        family = registry.counter("a_total", labels=("server", "level"))
        with pytest.raises(MetricError):
            family.labels("only-one")


class TestLabelMemo:
    def test_repeat_labels_returns_the_same_child(self, registry):
        family = registry.counter("m_total", labels=("server",))
        first = family.labels(3)
        assert family.labels(3) is first
        family.labels(3).inc()
        assert first.value == 1

    def test_int_and_str_label_are_one_series(self, registry):
        family = registry.counter("s_total", labels=("server",))
        family.labels(1).inc()
        family.labels("1").inc(2)
        family.labels(1).inc()
        assert family.labels("1") is family.labels(1)
        assert family.as_dict() == {"1": 4}
        assert len(family) == 1

    def test_unlabeled_family_creates_no_child_before_first_inc(self, registry):
        family = registry.counter("u_total")
        assert len(family) == 0
        assert registry.snapshot()["u_total"] == {"kind": "counter", "series": {}}
        family.inc()
        family.inc()
        assert len(family) == 1
        assert registry.snapshot()["u_total"]["series"] == {"": 2}

    def test_wrong_arity_raises_after_a_memo_hit(self, registry):
        family = registry.counter("w_total", labels=("server", "level"))
        family.labels(1, "L1").inc()
        family.labels(1, "L1").inc()
        with pytest.raises(MetricError):
            family.labels(1)
        with pytest.raises(MetricError):
            family.labels(1, "L1", "extra")
        unlabeled = registry.counter("w0_total")
        unlabeled.inc()
        with pytest.raises(MetricError):
            unlabeled.labels("x")

    def test_retain_forgets_the_memo(self, registry):
        gauge = registry.gauge("r", labels=("server",))
        dropped = gauge.labels(1)
        dropped.set(5)
        gauge.labels(2).set(7)
        gauge.retain([(2,)])
        fresh = gauge.labels(1)
        assert fresh is not dropped
        assert fresh.value == 0.0
        assert [key for key, _ in gauge.children()] == [("1",), ("2",)]
        assert gauge.labels("1") is fresh


class TestGauges:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("g")
        gauge.set(10)
        child = gauge.labels()
        child.inc(5)
        child.inc(-2)
        assert gauge.value == 13

    def test_retain_prunes_departed_series(self, registry):
        gauge = registry.gauge("files", labels=("server",))
        for sid in (0, 1, 2):
            gauge.labels(sid).set(sid * 10)
        gauge.retain([(0,), (2,)])
        assert len(gauge) == 2
        assert [key for key, _ in gauge.children()] == [("0",), ("2",)]


class TestHistograms:
    def test_observe_and_buckets(self, registry):
        histogram = registry.histogram("lat_ms", buckets=(1.0, 10.0))
        child = histogram.labels()
        for value in (0.5, 5.0, 50.0):
            child.observe(value)
        assert child.cumulative_buckets() == [
            (1.0, 1),
            (10.0, 2),
            (math.inf, 3),
        ]
        assert child.sum == pytest.approx(55.5)
        assert child.count == 3

    def test_value_on_bucket_boundary_counts_in_bucket(self, registry):
        # Prometheus 'le' semantics: an observation equal to the bound
        # belongs to that bucket.
        child = registry.histogram("b_ms", buckets=(1.0,)).labels()
        child.observe(1.0)
        assert child.cumulative_buckets()[0] == (1.0, 1)

    def test_recorder_passthroughs(self, registry):
        child = registry.histogram("r_ms").labels()
        for value in (1.0, 2.0, 3.0):
            child.observe(value)
        assert child.mean == pytest.approx(2.0)
        assert child.minimum == 1.0
        assert child.maximum == 3.0
        assert child.percentile(100) == 3.0
        assert set(child.summary()) == {
            "count", "mean", "min", "max", "p50", "p95", "p99",
        }

    def test_rejected_observation_leaves_no_trace(self, registry):
        histogram = registry.histogram("h_ms", buckets=(1.0,))
        child = histogram.labels()
        child.observe(1.0)
        with pytest.raises(ValueError):
            child.observe(-0.5)
        assert child.bucket_counts == [1, 0]
        assert (child.count, child.sum, child.minimum, child.maximum) == (
            1, 1.0, 1.0, 1.0,
        )
        exposition = prometheus_exposition(registry)
        assert 'h_ms_bucket{le="+Inf"} 1' in exposition
        assert "h_ms_count 1" in exposition

    def test_unsorted_buckets_rejected(self, registry):
        with pytest.raises(MetricError):
            registry.histogram("bad_ms", buckets=(5.0, 1.0))
        with pytest.raises(MetricError):
            registry.histogram("dup_ms", buckets=(1.0, 1.0))

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS_MS) == sorted(
            set(DEFAULT_LATENCY_BUCKETS_MS)
        )


class TestRegistry:
    def test_idempotent_registration(self, registry):
        first = registry.counter("x_total", "help", labels=("a",))
        second = registry.counter("x_total", "other help", labels=("a",))
        assert first is second
        assert len(registry) == 1

    def test_schema_conflicts_rejected(self, registry):
        registry.counter("x_total", labels=("a",))
        with pytest.raises(MetricError):
            registry.gauge("x_total", labels=("a",))
        with pytest.raises(MetricError):
            registry.counter("x_total", labels=("b",))

    def test_lookup_and_contains(self, registry):
        registry.gauge("g")
        assert "g" in registry
        assert registry.get("g") is not None
        assert registry.get("missing") is None
        assert "missing" not in registry

    def test_registration_order_preserved(self, registry):
        registry.counter("b_total")
        registry.gauge("a")
        assert [f.name for f in registry.families()] == ["b_total", "a"]

    def test_snapshot_shape(self, registry):
        registry.counter("c_total", labels=("k",)).labels("v").inc(2)
        registry.gauge("g").set(7)
        registry.histogram("h_ms").observe(1.0)
        snapshot = registry.snapshot()
        assert snapshot["c_total"] == {"kind": "counter", "series": {"v": 2}}
        assert snapshot["g"]["series"][""] == 7
        assert snapshot["h_ms"]["series"][""]["count"] == 1.0
