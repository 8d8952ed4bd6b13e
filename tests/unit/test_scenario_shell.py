"""The scenario shell (repro.scenario) and the drivers that run through it.

Every seeded driver — the gateway benches, ``faults soak|drill``,
``replication drill``, ``obs slo|pipeline`` — is ``scenario(spec,
tracer=None, flight=None) -> ScenarioResult`` and leaves printing, JSON,
spans, flight dumps and the exit code to :func:`run_scenario`.  These
tests hold the shell's contract, keep the tail from growing back in a
driver, and keep every driver flag and gateway setting tied to a caller.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

from repro.gateway import CohortConfig, GatewayConfig
from repro.replication.drill import run_drill
from repro.scenario import ScenarioResult, require_positive, run_scenario

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
ROOT = SRC.parents[1]


def _gated(spec, tracer=None, flight=None):
    """A stand-in scenario: the spec is the list of failures."""
    if flight is not None:
        flight.recorder("stand-in").record("step", 0.0)
    if tracer is not None:
        tracer.start_span("/x", origin_id=0).finish("L1", 0, 0.0, 0)
    return ScenarioResult({"failed": len(spec)}, "report line", list(spec))


class TestRunScenario:
    def test_green_prints_the_report_and_exits_0(self, capsys):
        assert run_scenario("t", _gated, []) == 0
        assert capsys.readouterr().out == "report line\n"

    def test_red_names_every_failure_and_exits_1(self, capsys):
        assert run_scenario("t", _gated, ["a", "b"]) == 1
        assert capsys.readouterr().out == "report line\nFAILED: a; b\n"

    def test_json_carries_the_stats_and_provenance(self, tmp_path, capsys):
        flat, nested = tmp_path / "flat.json", tmp_path / "nested.json"
        run_scenario("t", _gated, [], json_path=str(flat))
        run_scenario("t", _gated, [], json_path=str(nested), json_key="k")
        capsys.readouterr()
        flat_doc = json.loads(flat.read_text())
        assert flat_doc["failed"] == 0 and "git_rev" in flat_doc["_meta"]
        nested_doc = json.loads(nested.read_text())
        assert nested_doc["k"] == {"failed": 0} and set(nested_doc) == {"k", "_meta"}

    def test_red_gate_dumps_the_flight_rings(self, tmp_path, capsys):
        assert run_scenario("t", _gated, ["x"], flight_dir=str(tmp_path)) == 1
        assert "flight recorder: 1 dump(s)" in capsys.readouterr().out
        assert [p.name for p in tmp_path.iterdir()] == ["flight-001-t-gate-failure.json"]

    def test_observed_scenarios_get_spans_and_rings_without_outputs(self):
        seen = {}

        def observe(spec, tracer=None, flight=None):
            seen.update(tracer=tracer, flight=flight)
            return ScenarioResult({}, "", [])

        run_scenario("t", observe, None)
        assert seen == {"tracer": None, "flight": None}
        run_scenario("t", observe, None, observed=True)
        assert seen["tracer"] is not None and seen["flight"] is not None
        assert seen["flight"].dump_dir is None

    def test_spans_written_only_where_asked(self, tmp_path, capsys):
        out = tmp_path / "spans.jsonl"
        run_scenario("t", _gated, [], trace_out=str(out))
        assert f"wrote 1 spans to {out}" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 1

    def test_require_positive_names_the_field(self):
        class Spec:
            servers, files = 3, 0

        require_positive(Spec, "servers")
        with pytest.raises(ValueError, match="files must be positive, got 0"):
            require_positive(Spec, "servers", "files")


#: Every flag of every driver that runs through the shell, with the file
#: of its caller (a CI step, test, example or document that passes it).
#: A flag with no caller becomes a spec default instead.
DRIVER_FLAGS = {
    ("repro.faults", "soak"): {
        "--seed": ".github/workflows/ci.yml",
        "--duration-s": ".github/workflows/ci.yml",
        "--files": "tests/integration/test_driver_neutrality.py",
        "--json": ".github/workflows/ci.yml",
        "--trace-out": ".github/workflows/ci.yml",
        "--flight-dir": ".github/workflows/ci.yml",
    },
    ("repro.faults", "drill"): {
        "--servers": ".github/workflows/ci.yml",
        "--seed": ".github/workflows/ci.yml",
    },
    ("repro.replication", "drill"): {
        "--transport": ".github/workflows/ci.yml",
        "--servers": ".github/workflows/ci.yml",
        "--files": ".github/workflows/ci.yml",
        "--ops": ".github/workflows/ci.yml",
        "--seed": ".github/workflows/ci.yml",
        "--kill-at": "tests/integration/test_driver_neutrality.py",
        "--ship-every": "tests/integration/test_driver_neutrality.py",
        "--chaos": ".github/workflows/ci.yml",
        "--redirect-ops": ".github/workflows/ci.yml",
        "--rpo-bound": ".github/workflows/ci.yml",
        "--json": "README.md",
    },
    ("repro.obs", "slo"): {
        "--servers": "tests/integration/test_driver_neutrality.py",
        "--files": "tests/integration/test_driver_neutrality.py",
        "--ops": "tests/integration/test_driver_neutrality.py",
        "--seed": ".github/workflows/ci.yml",
    },
    ("repro.obs", "pipeline"): {
        "--servers": "tests/integration/test_driver_neutrality.py",
        "--files": "tests/integration/test_driver_neutrality.py",
        "--seed": ".github/workflows/ci.yml",
        "--top": "tests/integration/test_driver_neutrality.py",
        "--trace-out": ".github/workflows/ci.yml",
        "--flight-dir": ".github/workflows/ci.yml",
    },
}


@pytest.mark.parametrize("driver", sorted(DRIVER_FLAGS), ids=" ".join)
def test_driver_help_lists_only_flags_with_a_caller(driver, capsys):
    module, command = driver
    main = importlib.import_module(f"{module}.__main__").main
    with pytest.raises(SystemExit) as excinfo:
        main([command, "-h"])
    assert excinfo.value.code == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    allowed = DRIVER_FLAGS[driver]
    assert flags - {"--help"} - set(allowed) == set(), (
        "new flag without a named caller: make it a spec default, or add "
        "the caller to DRIVER_FLAGS"
    )
    assert set(allowed) - flags == set(), "stale allow-list entry"
    for flag, caller in allowed.items():
        assert flag in (ROOT / caller).read_text(encoding="utf-8"), (flag, caller)


#: Every field of the gateway's two configs, with a file under ``src/`` or
#: ``bench/`` that passes it by name.  A setting no caller there sets is a
#: module constant instead.
CONFIG_FIELDS = {
    GatewayConfig: {
        "cache_capacity": "bench/workloads/gateway.py",
        "lease_ttl_s": "src/repro/gateway/scenario.py",
        "negative_ttl_s": "src/repro/gateway/scenarios.py",
        "hot_lease_ttl_s": "src/repro/gateway/scenarios.py",
        "rate_per_s": "bench/workloads/gateway.py",
        "burst": "bench/workloads/gateway.py",
        "admission_mode": "src/repro/gateway/tenant_bench.py",
        "hot_threshold": "src/repro/gateway/scenario.py",
        "writeback": "bench/workloads/gateway.py",
        "flush_max_pending": "src/repro/gateway/scenarios.py",
        "flush_age_s": "src/repro/gateway/scenarios.py",
        "writeback_seed": "src/repro/gateway/scenarios.py",
        "writeback_origin": "src/repro/gateway/cohort.py",
    },
    CohortConfig: {
        "heartbeat_interval_s": "src/repro/gateway/scenarios.py",
        "suspect_after_s": "src/repro/gateway/scenarios.py",
        "ttl_clamp_s": "src/repro/gateway/scenarios.py",
        "gateway": "src/repro/gateway/scenarios.py",
    },
}


@pytest.mark.parametrize("config", list(CONFIG_FIELDS), ids=lambda c: c.__name__)
def test_every_gateway_setting_has_a_caller(config):
    allowed = CONFIG_FIELDS[config]
    assert {f.name for f in dataclasses.fields(config)} == set(allowed)
    for name, caller in allowed.items():
        text = (ROOT / caller).read_text(encoding="utf-8")
        assert re.search(rf"\b{name}=", text), (name, caller)


def _modules(*packages):
    for package in packages:
        yield from sorted((SRC / package).glob("*.py"))


def _called_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                yield f"{getattr(func.value, 'id', '?')}.{func.attr}", node
            elif isinstance(func, ast.Name):
                yield func.id, node


#: What only the shell does, and the two ``obs`` tools without a gate
#: that may still do it themselves.
TAIL_CALLS = {"json.dump", "run_metadata", "write_spans_jsonl", "CollectingTracer"}
UNGATED_TOOLS = {"_cmd_report", "_cmd_assemble"}


def test_no_driver_rebuilds_the_tail():
    offenders = []
    for path in _modules("faults", "replication", "obs", "gateway"):
        if path.parent.name == "obs" and path.name != "__main__.py":
            continue  # the obs library (exporters, flight recorder) itself
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {
            id(node)
            for function in tree.body
            if isinstance(function, ast.FunctionDef) and function.name in UNGATED_TOOLS
            for node in ast.walk(function)
        }
        offenders += [
            f"{path.relative_to(SRC)}:{node.lineno} {name}"
            for name, node in _called_names(tree)
            if name in TAIL_CALLS and id(node) not in exempt
        ]
    assert offenders == []


def test_no_cli_keeps_its_own_range_checks():
    for path in SRC.glob("*/__main__.py"):
        defined = {
            node.name
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef)
        }
        assert not defined & {"_positive_int", "_positive_float", "_rate"}, path


def test_drivers_reach_the_shell_not_the_gateway_engine():
    for path in _modules("faults", "replication", "obs"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                assert node.module != "repro.gateway.scenario", path


def test_run_drill_takes_a_spec():
    parameters = inspect.signature(run_drill).parameters
    assert list(parameters) == ["spec", "tracer", "flight"]
    assert parameters["spec"].annotation == "DrillSpec"
