"""Exporters: JSONL span logs, Prometheus text exposition, snapshot series.

Three machine-readable surfaces over the trace layer and the registry:

- :func:`write_spans_jsonl` / :func:`span_to_dict` — one JSON object per
  span (events inlined), the raw stream behind every figure run's
  ``--trace-out`` flag.
- :func:`prometheus_exposition` / :func:`write_prometheus` — the standard
  ``text/plain; version=0.0.4`` exposition format, scrape-compatible with
  Prometheus and its ecosystem.
- :class:`SnapshotSeries` — registry snapshots a caller appends at its
  own virtual times, turning point-in-time counters into time series.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Tuple

from repro.obs.registry import (
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    MetricsRegistry,
)
from repro.obs.trace import Span

# ----------------------------------------------------------------------
# JSONL span export
# ----------------------------------------------------------------------


def span_to_dict(span: Span) -> Dict[str, Any]:
    """Flatten a span (and its hop events) into a JSON-able dict."""
    return {
        "trace_id": span.trace_id,
        "span_id": getattr(span, "span_id", span.trace_id),
        "parent_id": getattr(span, "parent_id", None),
        "component": getattr(span, "component", ""),
        "kind": getattr(span, "kind", ""),
        "path": span.path,
        "origin_id": span.origin_id,
        "level": span.level,
        "home_id": span.home_id,
        "latency_ms": round(span.latency_ms, 6),
        "messages": span.messages,
        "false_forwards": span.false_forwards,
        "finished": span.finished,
        "events": [
            {
                "kind": event.kind,
                "level": event.level,
                "target": event.target,
                "latency_ms": round(event.latency_ms, 6),
                "messages": event.messages,
                **({"detail": event.detail} if event.detail else {}),
            }
            for event in span.events
        ],
    }


def write_spans_jsonl(spans: Iterable[Span], path: str) -> int:
    """Write one JSON object per span; returns the number written."""
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span_to_dict(span), sort_keys=True))
            handle.write("\n")
            written += 1
    return written


def read_spans_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a span JSONL file back as dicts (for analysis tooling)."""
    out: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _render_labels(names: Tuple[str, ...], values: Tuple[str, ...]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


def prometheus_exposition(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format.

    Families appear in registration order; series within a family are
    sorted by label values, so the output is deterministic for a given
    sequence of operations (the golden-file test relies on this).
    """
    lines: List[str] = []
    for family in registry.families():
        lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        if isinstance(family, (CounterFamily, GaugeFamily)):
            for key, child in family.children():
                labels = _render_labels(family.label_names, key)
                lines.append(
                    f"{family.name}{labels} {_format_value(child.value)}"
                )
        elif isinstance(family, HistogramFamily):
            for key, child in family.children():
                for bound, cumulative in child.cumulative_buckets():
                    bucket_labels = _render_labels(
                        family.label_names + ("le",),
                        key + (_format_value(bound),),
                    )
                    lines.append(
                        f"{family.name}_bucket{bucket_labels} {cumulative}"
                    )
                labels = _render_labels(family.label_names, key)
                lines.append(
                    f"{family.name}_sum{labels} {_format_value(child.sum)}"
                )
                lines.append(f"{family.name}_count{labels} {child.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: MetricsRegistry, path: str) -> int:
    """Write the exposition dump to ``path``; returns the byte count."""
    text = prometheus_exposition(registry)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return len(text.encode("utf-8"))


# ----------------------------------------------------------------------
# Snapshot time series
# ----------------------------------------------------------------------


class SnapshotSeries:
    """In-memory time series of registry snapshots."""

    def __init__(self) -> None:
        self.snapshots: List[Tuple[float, Dict[str, Any]]] = []

    def append(self, time_s: float, snapshot: Dict[str, Any]) -> None:
        self.snapshots.append((time_s, snapshot))

    def times(self) -> List[float]:
        return [time_s for time_s, _ in self.snapshots]

    def series(self, metric: str) -> List[Tuple[float, Any]]:
        """One unlabelled metric series over time: ``(time_s, value)``
        pairs."""
        out: List[Tuple[float, Any]] = []
        for time_s, snapshot in self.snapshots:
            family = snapshot.get(metric)
            if family is None:
                continue
            series = family["series"]
            if "" in series:
                out.append((time_s, series[""]))
        return out

    def __len__(self) -> int:
        return len(self.snapshots)
