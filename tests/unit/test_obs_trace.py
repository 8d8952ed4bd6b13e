"""Unit tests for the span/tracer layer (`repro.obs.trace`)."""

import pytest

from repro.obs.trace import (
    EVENT_KINDS,
    NULL_TRACER,
    CollectingTracer,
    NullTracer,
    Span,
    SpanEvent,
)


class TestSpanLifecycle:
    def test_open_span_accumulates_events(self):
        span = Span(0, "/a/b", origin_id=3)
        span.event("l1_probe", target=3, latency_ms=0.002, messages=0, hits=1)
        span.event("forward", target=7, latency_ms=0.4, messages=2)
        assert len(span) == 2
        assert [e.kind for e in span] == ["l1_probe", "forward"]
        assert span.events[0].detail == {"hits": 1}
        assert not span.finished

    def test_finish_seals_outcome(self):
        span = Span(1, "/a", origin_id=0)
        span.event("l1_probe", latency_ms=0.1, messages=0)
        span.finish("L1", home_id=5, latency_ms=0.1, messages=0)
        assert span.finished
        assert span.level == "L1"
        assert span.home_id == 5
        assert span.latency_ms == 0.1

    def test_event_after_finish_rejected(self):
        span = Span(2, "/a", origin_id=0)
        span.finish("L1", 0, 0.0, 0)
        with pytest.raises(ValueError):
            span.event("l1_probe")
        with pytest.raises(ValueError):
            span.finish("L2", 0, 0.0, 0)

    def test_level_path_collapses_repeats(self):
        span = Span(3, "/a", origin_id=0)
        for kind in ("l1_probe", "l2_probe", "forward", "verify",
                     "false_forward", "l2_probe", "group_multicast",
                     "global_multicast"):
            span.event(kind)
        assert span.level_path() == ["L1", "L2", "L3", "L4"]

    def test_event_totals(self):
        span = Span(4, "/a", origin_id=0)
        span.event("l1_probe", latency_ms=0.25, messages=2)
        span.event("group_multicast", latency_ms=0.5, messages=8)
        assert span.total_event_messages() == 10
        assert sum(e.latency_ms for e in span.events) == pytest.approx(0.75)

    def test_span_event_level_mapping(self):
        assert SpanEvent(kind="l1_probe").level == "L1"
        assert SpanEvent(kind="group_multicast").level == "L3"
        assert SpanEvent(kind="forward").level is None
        assert SpanEvent(kind="lru_hint").level is None

    def test_every_event_kind_constructible(self):
        for kind in EVENT_KINDS:
            assert SpanEvent(kind=kind).kind == kind


class TestNullTracer:
    def test_disabled_and_shared(self):
        assert NULL_TRACER.enabled is False
        first = NULL_TRACER.start_span("/a", 0)
        second = NULL_TRACER.start_span("/b", 1)
        assert first is second  # one shared state-free span

    def test_null_span_swallows_everything(self):
        span = NullTracer().start_span("/a", 0)
        span.event("l1_probe", target=1, latency_ms=5.0, messages=2)
        span.finish("L1", 1, 5.0, 2)
        span.event("l2_probe")  # even after finish: still a no-op
        assert span.events == ()
        assert span.level_path() == []
        assert span.total_event_messages() == 0
        assert span.finished is False


class TestCollectingTracer:
    def test_collects_and_numbers_spans(self):
        tracer = CollectingTracer()
        assert tracer.enabled is True
        a = tracer.start_span("/a", 0)
        b = tracer.start_span("/b", 1)
        assert (a.trace_id, b.trace_id) == (0, 1)
        assert len(tracer) == 2
        assert tracer.started == 2

    def test_finished_spans_filters_open_ones(self):
        tracer = CollectingTracer()
        open_span = tracer.start_span("/open", 0)
        done = tracer.start_span("/done", 0)
        done.finish("L1", 0, 0.0, 0)
        assert tracer.finished_spans() == [done]
        assert open_span in tracer.spans

    def test_clear(self):
        tracer = CollectingTracer()
        tracer.start_span("/a", 0)
        tracer.clear()
        assert len(tracer) == 0
