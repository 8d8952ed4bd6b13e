#!/usr/bin/env python3
"""Observability tour: tracing, metrics, and exporters on a live cluster.

The ``repro.obs`` package instruments the whole G-HBA stack.  This example
exercises every layer on one small deployment:

1. query-span tracing — a mixed workload runs under a
   :class:`~repro.obs.trace.CollectingTracer`; each span records the full
   L1–L4 walk with per-hop latency and message attribution;
2. the metrics registry — per-level, per-server and per-group counters,
   gauges and histograms the cluster maintains as it serves queries;
3. the operator dashboard and hotspot view (`repro.obs.report`);
4. exporters — a JSONL span log and a Prometheus text-exposition dump;
5. a metrics time series: registry snapshots on a virtual clock.

Run:  python examples/observability_tour.py
"""

import tempfile
from pathlib import Path

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.metadata.attributes import FileMetadata
from repro.obs.export import SnapshotSeries, prometheus_exposition, write_spans_jsonl
from repro.obs.report import hotspot_report, render_report
from repro.obs.trace import CollectingTracer
from repro.sim.rng import make_rng


def main() -> None:
    config = GHBAConfig(
        max_group_size=5,
        expected_files_per_mds=400,
        lru_capacity=300,
        lru_filter_bits=1 << 11,
    )
    tracer = CollectingTracer()
    cluster = GHBACluster(15, config, seed=11, tracer=tracer)
    placement = cluster.populate(f"/obs/d{i % 8}/f{i}" for i in range(1_500))
    cluster.synchronize_replicas(force=True)

    # 1. A mixed workload under tracing: hot-spot reads, misses, churn.
    rng = make_rng(11)
    paths = list(placement)
    inode = 5_000_000
    for index in range(2_500):
        roll = rng.random()
        if roll < 0.04:
            cluster.insert_file(
                FileMetadata(path=f"/obs/new/{index}", inode=inode)
            )
            inode += 1
        elif roll < 0.08:
            cluster.query(f"/obs/missing/{index}")
        else:
            # Zipf-ish: most queries hit a small hot prefix of the namespace.
            bound = 64 if rng.random() < 0.7 else len(paths)
            cluster.query(paths[rng.randrange(bound)])
    spans = tracer.finished_spans()
    print(f"traced {len(spans)} queries")
    deepest = max(spans, key=lambda s: len(s.level_path()))
    print(
        f"deepest walk: {deepest.path} -> {' > '.join(deepest.level_path())} "
        f"(resolved {deepest.level}, {deepest.messages} messages, "
        f"{deepest.latency_ms:.3f} ms virtual)"
    )
    for event in deepest.events:
        print(
            f"  {event.kind:<16} target={event.target} "
            f"msgs={event.messages} +{event.latency_ms:.3f} ms"
        )

    # 2 + 3. The registry feeds the dashboard and the hotspot view.
    print("\n-- operator dashboard --")
    print(render_report(cluster, top=3))
    print("\n-- hotspots only --")
    print(hotspot_report(cluster, top=3))

    # 4. Exporters: JSONL span log and a Prometheus exposition dump.
    with tempfile.TemporaryDirectory() as tmp:
        span_log = Path(tmp) / "spans.jsonl"
        written = write_spans_jsonl(spans, span_log)
        print(f"\nwrote {written} spans ({span_log.stat().st_size} bytes JSONL)")
        exposition = prometheus_exposition(cluster.metrics)
        families = sum(1 for line in exposition.splitlines() if line.startswith("# TYPE"))
        print(f"Prometheus exposition: {families} metric families, e.g.:")
        for line in exposition.splitlines()[:6]:
            print(f"  {line}")

    # 5. A time series: one hot query per virtual second, then a snapshot.
    series = SnapshotSeries()
    hot = paths[0]
    for second in range(1, 6):
        cluster.query(hot)
        series.append(float(second), cluster.metrics.snapshot())
    counts = series.series("ghba_messages_total")
    print(
        f"\nsnapshots at t={series.times()} s; "
        f"ghba_messages_total series: {[int(value) for _, value in counts]}"
    )


if __name__ == "__main__":
    main()
