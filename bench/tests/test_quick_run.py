"""End to end at 1/50 scale: the names the run prints are the names
BENCHMARK.json fixes, and a wrong answer cannot pass."""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench import ROOT, runner
from bench.layers import LAYER_METRICS
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--quick", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text()), proc.stdout, elapsed


def test_quick_run_is_quick(quick):
    _, _, elapsed = quick
    assert elapsed < 30.0


def test_every_name_in_the_output_is_in_benchmark_json(quick):
    results, stdout, _ = quick
    workloads = {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    (run,) = results["runs"]
    assert set(run) == workloads == set(WORKLOADS)
    assert set(results["layers"]) == workloads
    for name in workloads:
        assert set(run[name]["metrics"]) == end_to_end
        assert set(results["layers"][name]["metrics"]) == per_layer
        assert run[name]["failed"] == 0 and run[name]["attempted"] > 0
    for name in workloads | end_to_end | per_layer:
        assert NAME.match(name), name
        assert name in stdout


def test_benchmark_json_matches_the_code():
    assert [m["name"] for m in SPEC["per_layer"]] == [m.name for m in LAYER_METRICS]
    assert [(m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m.unit, m.better) for m in LAYER_METRICS
    ]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(runner.END_TO_END)
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert SPEC["paths"] == ["bench"]


def test_each_layer_works_on_one_workload_and_rests_on_another(quick):
    results, _, _ = quick
    ledger = {name: item["ledger"] for name, item in results["layers"].items()}
    assert not any(f.startswith("gateway") for f in ledger["fleet_zipf_lookup"])
    assert not any(f.startswith(("gateway", "core.")) for f in ledger["wire_mixed"])
    assert ledger["wire_mixed"]["net.tcp.request"] > 0.5
    gateway = sum(v for f, v in ledger["gw_hot_lookup"].items() if f.startswith("gateway"))
    core = sum(v for f, v in ledger["gw_hot_lookup"].items() if f.startswith(("core.", "bloom.")))
    assert gateway > core
    for item in results["layers"].values():
        assert item["covered_share"] >= 0.90


def test_a_wrong_answer_fails_the_pass(tmp_path):
    workload = WORKLOADS["fleet_zipf_lookup"]
    inputs = workload.generate(7, 0.2)
    system = workload.build(inputs, 7, tmp_path)
    workload.warm_up(system, inputs)
    timed = workload.timed(system, inputs)
    assert workload.check(system, inputs, timed).failed == 0
    # Move one looked-up file in the oracle: the same answers now disagree.
    victim = inputs["timed"][0]
    system.placement[victim] = (system.placement[victim] + 1) % 30
    verdict = workload.check(system, inputs, timed)
    assert verdict.failed >= 1 and victim in verdict.examples[0]
    report = {
        "failed": verdict.failed,
        "attempted": verdict.attempted,
        "examples": verdict.examples,
        "digest": "x",
        "ops": 1,
        "calls": 1,
    }
    with pytest.raises(runner.BenchError):
        runner._check_executions("fleet_zipf_lookup", [report])


def test_executions_that_disagree_on_the_digest_fail_the_run():
    base = {"failed": 0, "attempted": 5, "examples": [], "ops": 5, "calls": 5}
    with pytest.raises(runner.BenchError):
        runner._check_executions("w", [dict(base, digest="a"), dict(base, digest="b")])
    runner._check_executions("w", [dict(base, digest="a"), dict(base, digest="a")])


def test_a_forked_execution_leaves_the_built_system_as_it_was(tmp_path):
    workload = WORKLOADS["fleet_churn"]
    inputs = workload.generate(7, 0.2)
    system = workload.build(inputs, 7, tmp_path)
    before = workload.counters(system)
    first = runner._execute_in_fork(workload, system, inputs)
    again = runner._execute_in_fork(workload, system, inputs)
    assert workload.counters(system) == before
    assert first["digest"] == again["digest"] and first["failed"] == 0
    assert first["counters"]["queries"] > 0


def test_a_failure_in_a_forked_execution_fails_the_run(tmp_path, monkeypatch):
    workload = WORKLOADS["fleet_zipf_lookup"]
    inputs = workload.generate(7, 0.2)
    system = workload.build(inputs, 7, tmp_path)
    monkeypatch.setattr(system.cluster, "query", lambda path: 1 / 0)
    with pytest.raises(runner.BenchError, match="ZeroDivisionError"):
        runner._execute_in_fork(workload, system, inputs)


def test_a_silent_span_family_is_named_in_the_spec():
    # The check itself lives in runner.run_traced; here: every family a
    # workload requires or forbids is one the wrappers can record.
    from bench import layers

    families = {target[3] for target in layers.TARGETS}
    for workload in WORKLOADS.values():
        assert set(workload.required) <= families
        assert set(workload.absent) <= families


def test_out_dir_is_ignored_by_git():
    assert "bench/out/" in Path(ROOT / ".gitignore").read_text().split()
