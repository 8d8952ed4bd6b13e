"""Query-span tracing for the G-HBA lookup hierarchy.

A *span* records one metadata lookup end to end: every hop the query takes
down the L1-L4 hierarchy (local probes, forwards, group and global
multicasts, false-forward penalties) becomes a :class:`SpanEvent` with its
own latency and message attribution.  The sum of per-event message counts
equals the ``messages`` field of the lookup's
:class:`~repro.core.query.QueryResult`, and the ordered probe levels
reconstruct the exact path the query walked — that is the contract the
integration tests assert.

Tracing is opt-in.  The default :data:`NULL_TRACER` satisfies the
:class:`Tracer` protocol with shared, state-free no-op objects, so the
query critical path pays only a handful of no-op method calls when tracing
is off (the "zero-overhead-when-disabled" discipline).  Pass a
:class:`CollectingTracer` to a cluster to capture spans in memory, then
export them with :mod:`repro.obs.export`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Protocol, Tuple

#: Event kinds emitted by the instrumented query paths.  Probe-like kinds
#: carry the hierarchy level they exercise; bookkeeping kinds do not.
EVENT_KINDS = (
    "l1_probe",
    "l2_probe",
    "group_multicast",
    "global_multicast",
    "forward",
    "verify",
    "false_forward",
    "lru_hint",
)

#: Probe-kind -> hierarchy level label, used to reconstruct the level path.
_PROBE_LEVELS = {
    "l1_probe": "L1",
    "l2_probe": "L2",
    "group_multicast": "L3",
    "global_multicast": "L4",
}


@dataclass(frozen=True)
class SpanEvent:
    """One hop of a traced lookup.

    Attributes
    ----------
    kind:
        One of :data:`EVENT_KINDS`.
    target:
        Server ID (forwards/verifies) or group ID (group multicast) the hop
        involved; ``None`` for purely local steps.
    latency_ms:
        Simulated latency this hop added to the query.
    messages:
        Network messages this hop put on the wire (request+reply pairs
        count as 2, matching :class:`~repro.core.query.QueryResult`).
    detail:
        Free-form attribution (e.g. ``{"hits": 2}`` for a probe).
    """

    kind: str
    target: Optional[int] = None
    latency_ms: float = 0.0
    messages: int = 0
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def level(self) -> Optional[str]:
        """Hierarchy level this event probes, or None for bookkeeping."""
        return _PROBE_LEVELS.get(self.kind)


class Span:
    """The trace of one lookup: an ordered tree of hop events.

    Spans are created through a tracer's :meth:`Tracer.start_span`; the
    instrumented query path appends events via :meth:`event` and seals the
    span with :meth:`finish`.  A finished span knows the final outcome
    (level, home, latency, messages) and can reconstruct the walk.
    """

    __slots__ = (
        "trace_id",
        "path",
        "origin_id",
        "events",
        "level",
        "home_id",
        "latency_ms",
        "messages",
        "false_forwards",
        "finished",
        "span_id",
        "parent_id",
        "component",
        "kind",
    )

    def __init__(
        self,
        trace_id: int,
        path: str,
        origin_id: int,
        span_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        component: str = "",
        kind: str = "",
    ) -> None:
        self.trace_id = trace_id
        self.path = path
        self.origin_id = origin_id
        self.events: List[SpanEvent] = []
        self.level: Optional[str] = None
        self.home_id: Optional[int] = None
        self.latency_ms = 0.0
        self.messages = 0
        self.false_forwards = 0
        self.finished = False
        # Causal-tree identity: span_id is unique per span; parent_id links
        # to the span one hop upstream (None for a root); component/kind
        # say where in the pipeline the span was minted.
        self.span_id = trace_id if span_id is None else span_id
        self.parent_id = parent_id
        self.component = component
        self.kind = kind

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def event(
        self,
        kind: str,
        target: Optional[int] = None,
        latency_ms: float = 0.0,
        messages: int = 0,
        **detail: Any,
    ) -> None:
        """Append one hop event (rejects events on a finished span)."""
        if self.finished:
            raise ValueError(f"span {self.trace_id} already finished")
        self.events.append(
            SpanEvent(
                kind=kind,
                target=target,
                latency_ms=latency_ms,
                messages=messages,
                detail=detail,
            )
        )

    def finish(
        self,
        level: str,
        home_id: Optional[int],
        latency_ms: float,
        messages: int,
        false_forwards: int = 0,
    ) -> None:
        """Seal the span with the lookup's final outcome."""
        if self.finished:
            raise ValueError(f"span {self.trace_id} already finished")
        self.level = level
        self.home_id = home_id
        self.latency_ms = latency_ms
        self.messages = messages
        self.false_forwards = false_forwards
        self.finished = True

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def level_path(self) -> List[str]:
        """Hierarchy levels probed, in order (e.g. ``["L1", "L2", "L3"]``)."""
        path: List[str] = []
        for event in self.events:
            level = event.level
            if level is not None and (not path or path[-1] != level):
                path.append(level)
        return path

    def total_event_messages(self) -> int:
        """Sum of per-hop message counts (equals ``messages`` when sealed)."""
        return sum(event.messages for event in self.events)

    def __iter__(self) -> Iterator[SpanEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def context(self, origin: int = -1) -> "TraceContext":
        """The ``(trace_id, parent_span_id, origin)`` context downstream
        hops attach to — this span becomes the child's parent."""
        return (self.trace_id, self.span_id, origin)

    def __repr__(self) -> str:
        state = self.level if self.finished else "open"
        return (
            f"Span(id={self.trace_id}, path={self.path!r}, "
            f"events={len(self.events)}, {state})"
        )


#: Trace context threaded through message envelopes and mutation records:
#: ``(trace_id, parent_span_id, origin)``.  ``None`` everywhere tracing is
#: disabled, so the hot path never allocates one.
TraceContext = Tuple[int, int, int]


class Tracer(Protocol):
    """What the instrumented query paths require of a tracer."""

    enabled: bool

    def start_span(
        self,
        path: str,
        origin_id: int,
        trace_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        component: str = "",
        kind: str = "",
    ) -> Span:
        """Open a span for one lookup; the caller seals it via finish()."""
        ...


class _NullSpan:
    """A shared, state-free span: every method is a no-op.

    One instance is reused for every lookup, so the disabled-tracing path
    allocates nothing.
    """

    __slots__ = ()

    trace_id = -1
    span_id = -1
    parent_id: Optional[int] = None
    component = ""
    kind = ""
    path = ""
    origin_id = -1
    events: Tuple[SpanEvent, ...] = ()
    finished = False

    def event(self, *args: Any, **kwargs: Any) -> None:
        pass

    def finish(self, *args: Any, **kwargs: Any) -> None:
        pass

    def context(self, origin: int = -1) -> TraceContext:
        return (-1, -1, origin)

    def level_path(self) -> List[str]:
        return []

    def total_event_messages(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullSpan()"


class NullTracer:
    """The default tracer: hands out the shared no-op span."""

    enabled = False

    _SPAN = _NullSpan()

    def start_span(self, path: str, origin_id: int, **_: Any) -> _NullSpan:
        return self._SPAN

    def __repr__(self) -> str:
        return "NullTracer()"


#: Module-level singleton used as the default everywhere.
NULL_TRACER = NullTracer()


class CollectingTracer:
    """Collects finished (and in-flight) spans in memory, every one."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_id = 0

    def start_span(
        self,
        path: str,
        origin_id: int,
        trace_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        component: str = "",
        kind: str = "",
    ) -> Span:
        span_id = self._next_id
        span = Span(
            span_id if trace_id is None else trace_id,
            path,
            origin_id,
            span_id=span_id,
            parent_id=parent_id,
            component=component,
            kind=kind,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    @property
    def started(self) -> int:
        """Total spans ever started (including dropped ones)."""
        return self._next_id

    def finished_spans(self) -> List[Span]:
        return [span for span in self.spans if span.finished]

    def clear(self) -> None:
        self.spans.clear()

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return f"CollectingTracer(spans={len(self.spans)})"
