"""How executions fold into a run (no child processes: passes are faked)."""

import pytest

from bench import runner


def fake_execution(latencies_ns, cpu_chunks_ns=(1000,), warmup_s=0.5, rss=100.0):
    return {
        "failed": 0,
        "attempted": 3,
        "examples": [],
        "digest": "d",
        "ops": 3,
        "calls": 3,
        "counters": {},
        "warmup_s": warmup_s,
        "latencies_ns": list(latencies_ns),
        "cpu_chunks_ns": list(cpu_chunks_ns),
        "children_cpu_s": 0.0,
        "peak_rss_mb": rss,
    }


@pytest.fixture
def passes(monkeypatch):
    queue = []
    monkeypatch.setattr(runner, "spawn_pass", lambda *args, **kwargs: queue.pop(0))
    return queue


def test_each_call_takes_the_fastest_of_its_executions(passes):
    passes.append({"build_s": 1.0, "executions": [
        fake_execution([1000, 9000, 1000]), fake_execution([9000, 1000, 1000]),
    ]})
    passes.append({"build_s": 3.0, "executions": [fake_execution([5000] * 3)] * 2})
    result = runner.run_end_to_end("w", 7, 10.0, passes=2, replays=2)
    assert passes == []
    # min per call = 1000 ns each: 3 ops in 3 us, p50 = p99 = 1 us.
    assert result["metrics"]["ops_per_s"] == pytest.approx(1e6)
    assert result["metrics"]["call_p50_us"] == pytest.approx(1.0)
    assert result["metrics"]["call_p99_us"] == pytest.approx(1.0)
    assert len(result["per_execution"]["ops_per_s"]) == 4


def test_cpu_takes_each_chunk_where_it_was_cheapest(passes):
    cheap_first = fake_execution([1000] * 3, cpu_chunks_ns=[3000, 9000])
    cheap_last = fake_execution([1000] * 3, cpu_chunks_ns=[9000, 3000])
    cheap_last["children_cpu_s"] = 3e-6
    cheap_first["children_cpu_s"] = 6e-6
    passes.append({"build_s": 1.0, "executions": [cheap_first, cheap_last]})
    result = runner.run_end_to_end("w", 7, 10.0, passes=1, replays=2)
    # (3000 + 3000) ns of driver CPU + 3 us of children, over 3 ops.
    assert result["metrics"]["cpu_us_per_op"] == pytest.approx(3.0)


def test_set_up_and_memory_are_the_median_pass(passes):
    for build_s, rss in ((1.0, 100.0), (5.0, 300.0), (2.0, 200.0)):
        passes.append({"build_s": build_s, "executions": [
            fake_execution([1000] * 3, warmup_s=0.5, rss=rss),
            fake_execution([1000] * 3, warmup_s=0.7, rss=rss - 50.0),
        ]})
    result = runner.run_end_to_end("w", 7, 10.0, passes=3, replays=2)
    # Set-up = build + the pass's median warm-up; memory = the pass's peak.
    assert result["metrics"]["setup_s"] == pytest.approx(2.6)
    assert result["metrics"]["peak_rss_mb"] == 200.0


def test_a_run_is_exactly_the_passes_asked_for(passes):
    passes.extend({"build_s": 1.0, "executions": [fake_execution([2000] * 3)]} for _ in range(4))
    assert runner.run_end_to_end("w", 7, 10.0, passes=3, replays=1)["passes"] == 3
    assert len(passes) == 1
