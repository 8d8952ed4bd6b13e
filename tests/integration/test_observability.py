"""Integration tests: tracing and metrics against live clusters.

The central contract (DESIGN.md §7): a traced span reconstructs the exact
level path of its query, and its per-hop attributions sum to the
:class:`~repro.core.query.QueryResult` totals.
"""

import subprocess
import sys

import pytest

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.obs.export import prometheus_exposition
from repro.obs.report import render_report, server_hotspots
from repro.obs.trace import NULL_TRACER, CollectingTracer
from repro.prototype.cluster import PrototypeCluster

#: Resolution level -> the level walk the span must reconstruct.
EXPECTED_WALKS = {
    "L1": ["L1"],
    "L2": ["L1", "L2"],
    "L3": ["L1", "L2", "L3"],
    "L4": ["L1", "L2", "L3", "L4"],
    "L4-negative": ["L1", "L2", "L3", "L4"],
}


def _config(seed=7):
    return GHBAConfig(
        max_group_size=4,
        bits_per_file=16.0,
        expected_files_per_mds=512,
        lru_capacity=128,
        lru_filter_bits=1 << 10,
        lru_num_hashes=4,
        update_threshold_bits=32,
        seed=seed,
    )


@pytest.fixture
def traced_run():
    """A traced mixed workload: (cluster, tracer, ordered QueryResults)."""
    tracer = CollectingTracer()
    cluster = GHBACluster(10, _config(), seed=7, tracer=tracer)
    paths = [f"/fs/dir{i % 6}/file{i}" for i in range(600)]
    placement = cluster.populate(paths)
    cluster.synchronize_replicas(force=True)
    results = []
    for index, path in enumerate(paths[:120]):
        results.append(cluster.query(path))
        if index % 10 == 0:  # misses exercise the L4-negative walk
            results.append(cluster.query(f"/fs/missing/{index}"))
    for path in paths[:20]:  # repeats from one origin hit the warm L1
        results.append(cluster.query(path, origin_id=0))
        results.append(cluster.query(path, origin_id=0))
    return cluster, tracer, results, placement


class TestTracedQueries:
    def test_span_per_query_in_order(self, traced_run):
        _, tracer, results, _ = traced_run
        spans = tracer.finished_spans()
        assert len(spans) == len(results)
        assert [s.path for s in spans] == [r.path for r in results]

    def test_span_totals_reconcile_with_query_results(self, traced_run):
        _, tracer, results, _ = traced_run
        for span, result in zip(tracer.finished_spans(), results):
            assert span.level == result.level.label
            assert span.home_id == result.home_id
            assert span.origin_id == result.origin_id
            assert span.messages == result.messages
            assert span.false_forwards == result.false_forwards
            assert span.total_event_messages() == result.messages
            assert span.latency_ms == pytest.approx(result.latency_ms)
            assert sum(e.latency_ms for e in span.events) == pytest.approx(
                result.latency_ms
            )

    def test_level_path_reconstructs_walk(self, traced_run):
        _, tracer, results, _ = traced_run
        for span, result in zip(tracer.finished_spans(), results):
            assert span.level_path() == EXPECTED_WALKS[result.level.label]

    def test_l3_query_emits_expected_hop_sequence(self, traced_run):
        _, tracer, results, _ = traced_run
        l3_clean = [
            span
            for span, result in zip(tracer.finished_spans(), results)
            if result.level.label == "L3" and result.false_forwards == 0
        ]
        assert l3_clean, "workload produced no clean L3 query"
        for span in l3_clean:
            assert [e.kind for e in span.events] == [
                "l1_probe",
                "l2_probe",
                "group_multicast",
                "forward",
                "verify",
            ]
            multicast = span.events[2]
            # The multicast hop owns the group fan-out messages.
            assert multicast.target is not None
            assert multicast.messages >= 2
            forward = span.events[3]
            assert forward.target == span.home_id
            assert forward.messages == 2

    def test_all_levels_exercised(self, traced_run):
        _, tracer, results, _ = traced_run
        levels = {r.level.label for r in results}
        assert {"L1", "L3", "L4-negative"} <= levels

    def test_null_tracer_collects_nothing(self):
        cluster = GHBACluster(6, _config(), seed=3)
        assert cluster.tracer is NULL_TRACER
        placement = cluster.populate(f"/fs/f{i}" for i in range(100))
        cluster.synchronize_replicas(force=True)
        result = cluster.query(next(iter(placement)))
        assert result.found


class TestMetricsIntegration:
    def test_per_level_counters_match_results(self, traced_run):
        cluster, _, results, _ = traced_run
        by_level = {}
        for result in results:
            label = result.level.label
            by_level[label] = by_level.get(label, 0) + 1
        assert cluster.level_counter.as_dict() == by_level
        assert cluster.total_messages == sum(r.messages for r in results)
        assert cluster.total_false_forwards == sum(
            r.false_forwards for r in results
        )

    def test_server_attribution_sums(self, traced_run):
        cluster, _, results, _ = traced_run
        served = cluster.metrics.get("ghba_server_queries_served_total")
        found = [r for r in results if r.found]
        assert served.total() == len(found)
        origin = cluster.metrics.get("ghba_server_origin_queries_total")
        assert origin.total() == len(results)

    def test_refresh_gauges_reflects_structure(self, traced_run):
        cluster, _, _, _ = traced_run
        cluster.refresh_gauges()
        assert cluster.metrics.get("ghba_servers").value == cluster.num_servers
        assert cluster.metrics.get("ghba_groups").value == cluster.num_groups
        files = cluster.metrics.get("ghba_server_files")
        assert len(files) == cluster.num_servers
        total = sum(child.value for _, child in files.children())
        assert total == sum(s.file_count for s in cluster.servers.values())

    def test_refresh_gauges_prunes_departed_server(self, traced_run):
        cluster, _, _, _ = traced_run
        cluster.refresh_gauges()
        victim = cluster.server_ids()[-1]
        cluster.remove_server(victim)
        cluster.refresh_gauges()
        files = cluster.metrics.get("ghba_server_files")
        assert len(files) == cluster.num_servers
        assert (str(victim),) not in dict(files.children())

    def test_exposition_covers_the_stack(self, traced_run):
        cluster, _, _, _ = traced_run
        cluster.refresh_gauges()
        text = prometheus_exposition(cluster.metrics)
        for family in (
            "ghba_queries_total",
            "ghba_query_latency_ms_bucket",
            "ghba_server_queries_served_total",
            "ghba_server_probes_total",
            "ghba_group_multicasts_total",
            "ghba_server_stale_bits",
        ):
            assert family in text

    def test_hotspot_and_report_render(self, traced_run):
        cluster, _, _, _ = traced_run
        hotspots = server_hotspots(cluster)
        assert hotspots
        assert sum(h.queries_served for h in hotspots) > 0
        shares = [h.query_share for h in hotspots]
        assert shares == sorted(shares, reverse=True)
        text = render_report(cluster, top=3)
        assert "health summary" in text
        assert "hotspots: servers" in text
        assert "hotspots: groups" in text


class TestPrototypeTracing:
    def test_prototype_spans_reconcile(self):
        tracer = CollectingTracer()
        with PrototypeCluster(
            8, _config(seed=3), scheme="ghba", seed=3, tracer=tracer
        ) as proto:
            paths = [f"/fs/d{i % 4}/f{i}" for i in range(60)]
            proto.populate(paths)
            outcomes = [proto.lookup(path) for path in paths[:30]]
        spans = tracer.finished_spans()
        assert len(spans) == len(outcomes)
        for span, outcome in zip(spans, outcomes):
            assert span.level == outcome.level.label
            assert span.home_id == outcome.home_id
            assert span.latency_ms == pytest.approx(
                outcome.latency_ms
            )
            assert sum(e.latency_ms for e in span.events) == pytest.approx(
                outcome.latency_ms
            )
            assert span.total_event_messages() == span.messages
            assert span.level_path() == EXPECTED_WALKS[outcome.level.label]


class TestObsCli:
    def test_report_command(self, tmp_path):
        trace_out = tmp_path / "spans.jsonl"
        prom_out = tmp_path / "metrics.prom"
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.obs",
                "report",
                "--servers", "10",
                "--files", "300",
                "--ops", "400",
                "--top", "3",
                "--trace-out", str(trace_out),
                "--prom-out", str(prom_out),
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert "hotspots: servers" in result.stdout
        assert "wrote" in result.stdout
        assert trace_out.exists() and trace_out.stat().st_size > 0
        assert "# TYPE ghba_queries_total counter" in prom_out.read_text()
