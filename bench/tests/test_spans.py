import threading

import pytest

from bench import layers
from bench.spans import Patches, Span, SpanRecorder, merge_totals, root_seconds, self_times


def test_self_time_subtracts_children_not_grandchildren():
    # root 0..10 > child 1..4 > grandchild 2..3, and sibling child 5..9.
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("child", 1.0, 4.0, 0, 0),
        Span("grandchild", 2.0, 3.0, 1, 0),
        Span("child", 5.0, 9.0, 0, 0),
    ]
    totals = self_times(spans)
    assert totals["root"].self_s == pytest.approx(10.0 - 3.0 - 4.0)
    assert totals["child"].calls == 2
    assert totals["child"].self_s == pytest.approx((3.0 - 1.0) + 4.0)
    assert totals["child"].total_s == pytest.approx(7.0)
    assert totals["grandchild"].self_s == pytest.approx(1.0)
    # Self times partition the root's duration exactly.
    assert sum(t.self_s for t in totals.values()) == pytest.approx(10.0)
    assert root_seconds(spans) == pytest.approx(10.0)


def test_same_name_nested_in_itself_is_not_double_counted():
    spans = [Span("f", 0.0, 6.0, -1, 0), Span("f", 1.0, 3.0, 0, 0)]
    totals = self_times(spans)
    assert totals["f"].self_s == pytest.approx(6.0)
    assert totals["f"].total_s == pytest.approx(8.0)


def test_merge_totals_adds_threads():
    one = self_times([Span("a", 0.0, 1.0, -1, 0, 2)])
    two = self_times([Span("a", 0.0, 3.0, -1, 0, 5), Span("b", 1.0, 2.0, 0, 0)])
    merged = merge_totals([one, two])
    assert merged["a"].calls == 2 and merged["a"].units == 7
    assert merged["a"].self_s == pytest.approx(1.0 + 2.0)
    assert merged["b"].calls == 1


def test_wrapper_records_parent_op_and_units():
    recorder = SpanRecorder()

    def inner(x):
        return x * 2

    wrapped_inner = recorder.wrap("inner", inner, units=lambda args, result: result)

    def outer(x):
        return wrapped_inner(x) + wrapped_inner(x + 1)

    wrapped_outer = recorder.wrap("outer", outer)
    assert wrapped_outer(1) == 6  # disabled: a plain pass-through
    assert recorder.threads() == []
    recorder.enabled = True
    assert wrapped_outer(1) == 6
    assert wrapped_outer(2) == 10
    ((_, spans),) = recorder.threads()
    assert [s.name for s in spans] == ["outer", "inner", "inner"] * 2
    assert [s.parent for s in spans] == [-1, 0, 0, -1, 3, 3]
    assert [s.op for s in spans] == [0, 0, 0, 1, 1, 1]
    assert [s.units for s in spans] == [0, 2, 4, 0, 4, 6]
    for span in spans:
        assert span.end >= span.start > 0.0
    totals = self_times(spans)
    assert totals["outer"].self_s <= totals["outer"].total_s


def test_wrapper_closes_the_span_when_the_call_raises():
    recorder = SpanRecorder()
    recorder.enabled = True

    def boom():
        raise KeyError("x")

    wrapped = recorder.wrap("boom", boom)
    with pytest.raises(KeyError):
        wrapped()
    ok = recorder.wrap("ok", lambda: 1)
    ok()
    ((_, spans),) = recorder.threads()
    assert [(s.name, s.parent) for s in spans] == [("boom", -1), ("ok", -1)]


def test_threads_get_their_own_span_lists():
    recorder = SpanRecorder()
    recorder.enabled = True
    wrapped = recorder.wrap("work", lambda: None)
    threads = [threading.Thread(target=wrapped, name=f"t{i}") for i in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert sorted(name for name, _ in recorder.threads()) == ["t0", "t1", "t2"]
    assert all(len(spans) == 1 for _, spans in recorder.threads())


def test_patches_restore_the_original_attribute_by_identity():
    class Target:
        def method(self):
            return "original"

    original = vars(Target)["method"]
    patches = Patches()
    patches.replace(Target, "method", lambda fn: lambda self: "patched")
    assert Target().method() == "patched"
    patches.remove()
    assert vars(Target)["method"] is original
    assert patches.originals() == []


def test_install_wraps_every_target_and_remove_leaves_none():
    recorder = SpanRecorder()
    patches = layers.install(recorder)
    try:
        saved = patches.originals()
        assert len(saved) == len(layers.TARGETS)
        for owner, attr, original in saved:
            assert vars(owner)[attr] is not original
            assert vars(owner)[attr].__wrapped__ is original
    finally:
        patches.remove()
    for owner, attr, original in saved:
        assert vars(owner)[attr] is original


def test_layer_values_are_exactly_the_catalogue():
    values = layers.layer_values({}, {}, ops=10, driver_self_s=0.0, trace_overhead_share=0.0)
    assert list(values) == [metric.name for metric in layers.LAYER_METRICS]
    assert len(values) == 62
    assert all(value == 0.0 for value in values.values())


def test_every_prediction_names_real_workloads_and_metrics():
    from bench.runner import END_TO_END
    from bench.workloads import WORKLOADS

    end_to_end = {name for name, _ in END_TO_END} | {"failed", "none"}
    for metric in layers.LAYER_METRICS:
        assert set(metric.on.split()) <= set(WORKLOADS) | {"all"}, metric.name
        assert metric.moves.split()[0] in end_to_end, metric.name
        assert metric.better in ("higher", "lower")
