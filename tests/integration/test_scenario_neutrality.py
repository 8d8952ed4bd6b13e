"""Scenario neutrality: the engine reproduces the pre-refactor benches.

``data/scenario_stats_seed7.json`` holds the ``--json`` output (minus the
``_meta`` provenance block) of small specs of all four ``repro.gateway
bench`` scenarios — healthy and ``--chaos`` where the scenario has one —
recorded at the commit *before* the four hand-written replays were
folded into :mod:`repro.gateway.scenario`.  Replaying the same command
lines through the engine must give the same stats and exit code, so a
change to the shared fleet sizing, tick grouping, drain or JSON shape
that moves any scenario's numbers fails here, not in a CI diff.

Regenerate only for a deliberate behaviour change, and say so in
CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from repro.gateway.__main__ import main as gateway_main

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "scenario_stats_seed7.json").read_text(
        encoding="utf-8"
    )
)


def test_golden_covers_every_scenario_non_vacuously():
    assert sorted(GOLDEN) == [
        "cohort", "shield", "shield_chaos", "tenants", "writeback",
        "writeback_chaos",
    ]
    assert GOLDEN["shield_chaos"]["stats"]["degraded_answers"] > 0
    assert GOLDEN["cohort"]["stats"]["gaps_detected"] > 0
    writeback = GOLDEN["writeback"]["stats"]["gateway_writeback"]
    assert writeback["writeback"]["flush_retries"] > 0
    tenants = GOLDEN["tenants"]["stats"]["gateway_tenants"]
    assert tenants["sweep"][0]["fair"]["total_shed"] > 0


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_engine_reproduces_recorded_stats(name, tmp_path, capsys):
    case = GOLDEN[name]
    out = tmp_path / "stats.json"
    code = gateway_main(["bench", *case["argv"], "--json", str(out)])
    capsys.readouterr()
    stats = json.loads(out.read_text(encoding="utf-8"))
    meta = stats.pop("_meta")
    assert {"git_rev", "python", "run_duration_s"} <= set(meta)
    assert code == case["exit_code"]
    assert stats == case["stats"]


@pytest.mark.parametrize("flags", [[], ["--writeback"], ["--tenants", "3"]])
def test_json_written_only_when_asked(flags, tmp_path, monkeypatch, capsys):
    """No scenario drops a ``BENCH_*.json`` into the working directory."""
    monkeypatch.chdir(tmp_path)
    small = ["--seed", "7", "--servers", "8", "--files", "300", "--ops", "400"]
    gateway_main(["bench", *small, *flags])
    assert "wrote bench stats" not in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
