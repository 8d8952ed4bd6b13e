"""Unit tests for the exporters (`repro.obs.export`)."""

from pathlib import Path

import pytest

from repro.obs.export import (
    SnapshotSeries,
    prometheus_exposition,
    read_spans_jsonl,
    span_to_dict,
    write_prometheus,
    write_spans_jsonl,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import CollectingTracer

GOLDEN = Path(__file__).parent / "data" / "prometheus_golden.prom"
GATEWAY_GOLDEN = (
    Path(__file__).parent / "data" / "prometheus_gateway_golden.prom"
)


def _finished_span():
    tracer = CollectingTracer()
    span = tracer.start_span("/fs/a", origin_id=2)
    span.event("l1_probe", target=2, latency_ms=0.002, messages=0, hits=0)
    span.event("l2_probe", target=2, latency_ms=0.004, messages=0, hits=1)
    span.event("forward", target=5, latency_ms=0.4, messages=2)
    span.event("verify", target=5, latency_ms=0.01, messages=0, found=True)
    span.finish("L2", home_id=5, latency_ms=0.416, messages=2)
    return span


class TestSpanJsonl:
    def test_span_to_dict_round_trips_totals(self):
        record = span_to_dict(_finished_span())
        assert record["path"] == "/fs/a"
        assert record["level"] == "L2"
        assert record["home_id"] == 5
        assert record["messages"] == 2
        assert sum(e["messages"] for e in record["events"]) == 2
        assert [e["kind"] for e in record["events"]] == [
            "l1_probe", "l2_probe", "forward", "verify",
        ]
        assert record["events"][1]["detail"] == {"hits": 1}
        assert record["events"][1]["level"] == "L2"

    def test_write_and_read_jsonl(self, tmp_path):
        spans = [_finished_span(), _finished_span()]
        out = tmp_path / "spans.jsonl"
        assert write_spans_jsonl(spans, out) == 2
        records = read_spans_jsonl(out)
        assert len(records) == 2
        assert records[0] == span_to_dict(spans[0])

    def test_write_empty(self, tmp_path):
        out = tmp_path / "none.jsonl"
        assert write_spans_jsonl([], out) == 0
        assert read_spans_jsonl(out) == []


def _golden_registry():
    registry = MetricsRegistry()
    queries = registry.counter(
        "ghba_queries_total",
        "Queries served, by hierarchy level.",
        labels=("level",),
    )
    queries.labels("L1").inc(12)
    queries.labels("L2").inc(3)
    registry.gauge("ghba_servers", "Servers in the cluster.").set(10)
    latency = registry.histogram(
        "ghba_query_latency_ms",
        "End-to-end query latency.",
        buckets=(0.1, 1.0, 10.0),
    )
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        latency.observe(value)
    escapes = registry.counter(
        "esc_total",
        'Label values with "quotes" and back\\slash.',
        labels=("path",),
    )
    escapes.labels('/a "b"\\c').inc()
    return registry


class TestPrometheus:
    def test_matches_golden_file(self):
        assert prometheus_exposition(_golden_registry()) == GOLDEN.read_text()

    def test_deterministic(self):
        assert prometheus_exposition(_golden_registry()) == (
            prometheus_exposition(_golden_registry())
        )

    def test_empty_registry_renders_empty(self):
        assert prometheus_exposition(MetricsRegistry()) == ""

    def test_write_prometheus_returns_byte_count(self, tmp_path):
        out = tmp_path / "metrics.prom"
        size = write_prometheus(_golden_registry(), out)
        assert size == out.stat().st_size
        assert out.read_text() == GOLDEN.read_text()


def _gateway_registry():
    """The labeled gateway families added by the observability pass."""
    registry = MetricsRegistry()
    requests = registry.counter(
        "gateway_requests_total",
        "Gateway requests, by op and tenant.",
        labels=("op", "tenant"),
    )
    requests.labels("lookup", "t0").inc(120)
    requests.labels("lookup", "t1").inc(30)
    requests.labels("create", "t0").inc(8)
    flushed = registry.counter(
        "gateway_writeback_flushed_total",
        "Buffered mutations flushed, by op and home MDS.",
        labels=("op", "home"),
    )
    flushed.labels("create", "3").inc(5)
    flushed.labels("delete", "7").inc(2)
    latency = registry.histogram(
        "gateway_lookup_latency_ms",
        "Gateway-observed lookup latency, per tenant.",
        labels=("tenant",),
        buckets=(0.01, 0.1, 1.0, 10.0, 100.0),
    )
    for value in (0.005, 0.05, 0.5, 0.5, 5.0):
        latency.labels("t0").observe(value)
    latency.labels("t1").observe(50.0)
    return registry


class TestPrometheusEdgeCases:
    def test_newlines_in_label_values_are_escaped(self):
        registry = MetricsRegistry()
        family = registry.counter("nl_total", labels=("msg",))
        family.labels("line1\nline2").inc()
        text = prometheus_exposition(registry)
        assert 'nl_total{msg="line1\\nline2"} 1' in text
        # The exposition itself must stay one-series-per-line.
        series_lines = [
            line for line in text.splitlines() if line.startswith("nl_total{")
        ]
        assert len(series_lines) == 1

    def test_quotes_and_backslashes_escaped_together(self):
        registry = MetricsRegistry()
        family = registry.counter("esc2_total", labels=("v",))
        family.labels('q"q\\b\nn').inc()
        text = prometheus_exposition(registry)
        assert 'esc2_total{v="q\\"q\\\\b\\nn"} 1' in text

    def test_empty_histogram_family_emits_header_only(self):
        registry = MetricsRegistry()
        registry.histogram("h_ms", "Never observed.", buckets=(1.0,))
        text = prometheus_exposition(registry)
        assert "# HELP h_ms Never observed." in text
        assert "# TYPE h_ms histogram" in text
        assert "h_ms_bucket" not in text
        assert "h_ms_count" not in text

    def test_empty_labeled_counter_emits_header_only(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "Never incremented.", labels=("op",))
        text = prometheus_exposition(registry)
        assert "# TYPE c_total counter" in text
        assert "c_total{" not in text

    def test_gateway_families_match_golden_file(self):
        exposition = prometheus_exposition(_gateway_registry())
        assert exposition == GATEWAY_GOLDEN.read_text()

    def test_gateway_exposition_deterministic(self):
        assert prometheus_exposition(_gateway_registry()) == (
            prometheus_exposition(_gateway_registry())
        )


class TestSnapshots:
    def test_periodic_snapshots_on_virtual_clock(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total")
        series = SnapshotSeries()
        for second in (1.0, 2.0, 3.0):
            counter.inc()
            series.append(second, registry.snapshot())
        assert series.times() == [1.0, 2.0, 3.0]
        assert [v for _, v in series.series("ops_total")] == [1, 2, 3]
        assert len(series) == 3

    def test_series_skips_missing_metric(self):
        series = SnapshotSeries()
        series.append(1.0, {"present": {"kind": "gauge", "series": {"": 1}}})
        assert series.series("absent") == []
        assert series.series("present") == [(1.0, 1)]
