"""Shared experiment plumbing: result containers, table rendering, windowed
series, the L1 ablations' replay, tracing.

Experiments that replay queries against a live cluster accept an opt-in
``--trace-out PATH`` flag: when given, every query runs under a
:class:`~repro.obs.trace.CollectingTracer` and the finished spans are
written as JSONL (see :mod:`repro.obs.export`).  The three helpers at the
bottom — :func:`add_trace_out_argument`, :func:`tracer_for`,
:func:`finish_trace` — keep that wiring identical across experiment CLIs.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.obs.trace import NULL_TRACER, CollectingTracer, Tracer
from repro.obs.export import write_spans_jsonl
from repro.traces.profiles import PROFILES
from repro.traces.synthetic import SyntheticTraceGenerator


@dataclass
class ExperimentResult:
    """Rows regenerated for one table/figure.

    Attributes
    ----------
    name:
        Experiment identifier, e.g. ``"fig11"``.
    title:
        Human-readable description.
    rows:
        Uniform dictionaries, one per table row / plotted point.
    params:
        The parameters the run used (provenance for EXPERIMENTS.md).
    """

    name: str
    title: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    params: Dict[str, Any] = field(default_factory=dict)

    def column(self, key: str) -> List[Any]:
        """All values of one column, in row order."""
        return [row[key] for row in self.rows]

    def filter(self, **criteria: Any) -> List[Dict[str, Any]]:
        """Rows matching every ``column=value`` criterion."""
        return [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in criteria.items())
        ]

    def format(self, float_digits: int = 3) -> str:
        """Render as an aligned text table."""
        if not self.rows:
            return f"{self.title}\n(no rows)"
        return f"{self.title}\n" + format_table(self.rows, float_digits)


def format_table(rows: Sequence[Dict[str, Any]], float_digits: int = 3) -> str:
    """Render uniform dict rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0])

    def render(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.{float_digits}f}"
        return str(value)

    table = [columns] + [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
        for line in table
    ]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)


@dataclass(frozen=True)
class SeriesPoint:
    """One window of a metric series."""

    x: float
    mean: float
    count: int


class SeriesRecorder:
    """Windowed averages: mean of ``value`` per fixed-width window of ``x``.

    Figures 8-10 and 14 plot average latency against cumulative operation
    count; feeding ``(operation_index, latency)`` pairs here with a window
    width of e.g. 10^5 yields exactly those series.
    """

    def __init__(self, window_width: float) -> None:
        if window_width <= 0:
            raise ValueError(f"window_width must be positive, got {window_width}")
        self._width = window_width
        self._points: List[SeriesPoint] = []
        self._window_start = 0.0
        self._window_sum = 0.0
        self._window_count = 0

    def record(self, x: float, value: float) -> None:
        if x < self._window_start:
            raise ValueError(
                f"x must be non-decreasing: {x} < window start {self._window_start}"
            )
        while x >= self._window_start + self._width:
            self._flush_window()
        self._window_sum += value
        self._window_count += 1

    def _flush_window(self) -> None:
        if self._window_count > 0:
            self._points.append(
                SeriesPoint(
                    x=self._window_start + self._width / 2.0,
                    mean=self._window_sum / self._window_count,
                    count=self._window_count,
                )
            )
        self._window_start += self._width
        self._window_sum = 0.0
        self._window_count = 0

    def finish(self) -> List[SeriesPoint]:
        """Flush the trailing partial window and return all points."""
        if self._window_count > 0:
            self._flush_window()
        return list(self._points)


# ----------------------------------------------------------------------
# Opt-in query tracing (--trace-out)
# ----------------------------------------------------------------------
def replay_lookups(
    config: GHBAConfig,
    num_servers: int,
    num_files: int,
    num_ops: int,
    profile_name: str,
    seed: int,
) -> Tuple[GHBACluster, Dict[str, float]]:
    """The L1 ablations' run: build a cluster, place a synthetic trace's
    files, publish every replica, look up each traced path that exists.
    Returns the cluster and its per-level hit fractions."""
    cluster = GHBACluster(num_servers, config, seed=seed)
    generator = SyntheticTraceGenerator(PROFILES[profile_name], num_files, seed=seed)
    placement = cluster.populate(generator.paths)
    cluster.synchronize_replicas(force=True)
    for record in generator.generate(num_ops):
        if record.path in placement:
            cluster.query(record.path)
    return cluster, cluster.level_fractions()


def add_trace_out_argument(parser: argparse.ArgumentParser) -> None:
    """Register the shared ``--trace-out PATH`` option on ``parser``."""
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help=(
            "write a JSONL span log of every query in the run "
            "(one JSON object per lookup; see repro.obs)"
        ),
    )


def tracer_for(trace_out: Optional[str]) -> Tracer:
    """A collecting tracer when tracing was requested, else the null tracer."""
    return CollectingTracer() if trace_out else NULL_TRACER


def finish_trace(tracer: Tracer, trace_out: Optional[str]) -> int:
    """Write collected spans to ``trace_out`` (no-op without a path).

    Returns the number of spans written.
    """
    if not trace_out or not isinstance(tracer, CollectingTracer):
        return 0
    written = write_spans_jsonl(tracer.finished_spans(), trace_out)
    print(f"wrote {written} spans to {trace_out}")
    return written
