"""repro.obs — observability for the G-HBA stack.

Seven layers, composable and individually optional:

- :mod:`repro.obs.trace` — per-query spans walking the L1-L4 hierarchy,
  behind a zero-overhead-when-disabled :class:`~repro.obs.trace.Tracer`
  protocol (:data:`~repro.obs.trace.NULL_TRACER` by default).  Spans
  carry ``span_id``/``parent_id`` so hops across components link into
  causal trees via the ``(trace_id, parent_span_id, origin)`` context
  threaded through the transport message envelope.
- :mod:`repro.obs.registry` — named counters, gauges and streaming
  histograms with per-server / per-group / per-tenant labels.
- :mod:`repro.obs.export` — JSONL span logs, Prometheus text exposition,
  and snapshot time series a caller appends on its own clock.
- :mod:`repro.obs.flight` — bounded per-component flight recorders,
  dumped automatically on crash or harness violation.
- :mod:`repro.obs.assemble` — stitches span JSONL dumps back into
  per-mutation causal trees (``python -m repro.obs assemble``).
- :mod:`repro.obs.slo` — declarative latency/staleness/loss objectives
  over the registry, with multi-window burn-rate alerts.
- :mod:`repro.obs.report` — the operator dashboard and hotspot ranking
  (``python -m repro.obs report``).
"""

from repro.obs.assemble import (
    MUTATION_CHAIN,
    TraceNode,
    TraceTree,
    assemble_traces,
    chain_kinds,
    find_chains,
    render_forest,
    render_tree,
    tree_to_dict,
)
from repro.obs.export import (
    SnapshotSeries,
    prometheus_exposition,
    read_spans_jsonl,
    span_to_dict,
    write_prometheus,
    write_spans_jsonl,
)
from repro.obs.flight import (
    NULL_RECORDER,
    FlightRecorder,
    FlightRecorderHub,
    NullFlightRecorder,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    MetricError,
    MetricsRegistry,
)
from repro.obs.report import (
    GroupHotspot,
    ServerHotspot,
    gateway_pipeline_report,
    group_hotspots,
    hotspot_report,
    render_report,
    render_summary,
    server_hotspots,
    transport_report,
)
from repro.obs.slo import (
    DEFAULT_BURN_WINDOWS,
    BurnWindow,
    CounterSelector,
    Objective,
    SLOEngine,
    SLOResult,
    WindowBurn,
    default_objectives,
    render_slo_report,
    select,
)
from repro.obs.trace import (
    NULL_TRACER,
    CollectingTracer,
    NullTracer,
    Span,
    SpanEvent,
    TraceContext,
    Tracer,
)

__all__ = [
    "BurnWindow",
    "CollectingTracer",
    "CounterFamily",
    "CounterSelector",
    "DEFAULT_BURN_WINDOWS",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "FlightRecorder",
    "FlightRecorderHub",
    "GaugeFamily",
    "GroupHotspot",
    "HistogramFamily",
    "MUTATION_CHAIN",
    "MetricError",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NULL_TRACER",
    "NullFlightRecorder",
    "NullTracer",
    "Objective",
    "SLOEngine",
    "SLOResult",
    "ServerHotspot",
    "SnapshotSeries",
    "Span",
    "SpanEvent",
    "TraceContext",
    "TraceNode",
    "TraceTree",
    "Tracer",
    "WindowBurn",
    "assemble_traces",
    "chain_kinds",
    "default_objectives",
    "find_chains",
    "gateway_pipeline_report",
    "group_hotspots",
    "hotspot_report",
    "prometheus_exposition",
    "read_spans_jsonl",
    "render_forest",
    "render_report",
    "render_summary",
    "render_slo_report",
    "render_tree",
    "select",
    "server_hotspots",
    "span_to_dict",
    "transport_report",
    "tree_to_dict",
    "write_prometheus",
    "write_spans_jsonl",
]
