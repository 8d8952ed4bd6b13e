"""Driver neutrality: the seeded drivers print what they printed.

``data/driver_outputs.json`` holds, for every command line of ``python -m
repro.faults soak|drill``, ``python -m repro.replication drill`` and
``python -m repro.obs slo|pipeline`` that CI or a document runs — plus a
few small ones that are the callers of flags nothing else passes — the
stdout, the exit code and the ``--json`` output minus its ``_meta``
provenance block, recorded before these drivers were moved onto the one
scenario shell (:mod:`repro.scenario`).  Replaying each command line
in-process must give the same report, exit code and JSON.

A line that names where the run wrote its output (``wrote N spans to
DIR/…``, ``flight recorder: N dump(s) in DIR``) depends on the temporary
directory and on who prints it; such lines, and the blank line that
separates one from the report, are left out of the comparison.  Every
other stdout line must be byte-identical.

Re-record only for a deliberate behaviour change, and say so in
CHANGES.md::

    PYTHONPATH=src python -m tests.integration.test_driver_neutrality
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest

DATA = Path(__file__).parent / "data" / "driver_outputs.json"
#: Stands for the run's scratch directory in argv and in stdout.
TMP = "{tmp}"

#: name -> argv after ``python -m``.
COMMANDS: Dict[str, List[str]] = {
    # DESIGN.md §8; ci.yml; EXPERIMENTS.md "Chaos soak".
    "soak_seed7": ["repro.faults", "soak", "--seed", "7"],
    "soak_seed7_5s": ["repro.faults", "soak", "--seed", "7", "--duration-s", "5"],
    "soak_seed7_5s_json": [
        "repro.faults", "soak", "--seed", "7", "--duration-s", "5",
        "--json", f"{TMP}/soak.json",
    ],
    "soak_seed7_5s_traced": [
        "repro.faults", "soak", "--seed", "7", "--duration-s", "5",
        "--trace-out", f"{TMP}/soak-spans.jsonl",
        "--flight-dir", f"{TMP}/soak-flight",
    ],
    "soak_small": [
        "repro.faults", "soak", "--seed", "3", "--duration-s", "1",
        "--files", "60",
    ],
    "faults_drill": ["repro.faults", "drill", "--servers", "9", "--seed", "0"],
    "faults_drill_small": ["repro.faults", "drill", "--servers", "4", "--seed", "5"],
    # EXPERIMENTS.md "Switchover drill", README, ci.yml, the CLI docstring.
    "replication_seed11": ["repro.replication", "drill", "--seed", "11"],
    "replication_seed11_chaos": [
        "repro.replication", "drill", "--seed", "11", "--chaos",
        "--rpo-bound", "64",
    ],
    "replication_seed11_chaos_json": [
        "repro.replication", "drill", "--seed", "11", "--chaos",
        "--rpo-bound", "64", "--json", f"{TMP}/replication.json",
    ],
    "replication_readme": [
        "repro.replication", "drill", "--seed", "11", "--chaos",
        "--json", f"{TMP}/replication.json",
    ],
    "replication_docstring": [
        "repro.replication", "drill", "--servers", "3", "--files", "300",
        "--ops", "1200", "--seed", "11", "--chaos",
    ],
    "replication_tcp_docs": [
        "repro.replication", "drill", "--transport", "tcp", "--servers", "2",
        "--files", "100", "--ops", "300", "--seed", "7",
    ],
    "replication_tcp_ci": [
        "repro.replication", "drill", "--transport", "tcp", "--servers", "2",
        "--files", "100", "--ops", "300", "--redirect-ops", "80", "--seed", "7",
    ],
    "replication_inproc_small": [
        "repro.replication", "drill", "--seed", "7", "--servers", "2",
        "--files", "100", "--ops", "300", "--redirect-ops", "80",
    ],
    "replication_kill_ship": [
        "repro.replication", "drill", "--seed", "5", "--servers", "2",
        "--files", "80", "--ops", "200", "--kill-at", "0.5",
        "--ship-every", "8", "--redirect-ops", "40",
    ],
    # EXPERIMENTS.md "SLO report" / "Causal trace of one mutation", ci.yml.
    "slo": ["repro.obs", "slo"],
    "slo_seed0": ["repro.obs", "slo", "--seed", "0"],
    "slo_small": [
        "repro.obs", "slo", "--servers", "4", "--files", "100", "--ops", "300",
        "--seed", "3",
    ],
    "pipeline_seed7": ["repro.obs", "pipeline", "--seed", "7"],
    "pipeline_seed7_traced": [
        "repro.obs", "pipeline", "--seed", "7",
        "--trace-out", f"{TMP}/pipe-spans.jsonl", "--flight-dir", f"{TMP}/flight",
    ],
    "pipeline_small": [
        "repro.obs", "pipeline", "--servers", "4", "--files", "60", "--top", "1",
        "--seed", "3",
    ],
}


def run(argv: List[str]) -> Tuple[int, List[str], Optional[dict]]:
    """Run one command line in-process under a fresh scratch directory:
    ``(exit code, stdout lines with the directory as {tmp}, JSON minus
    _meta or None)``."""
    module, *args = argv
    main = importlib.import_module(f"{module}.__main__").main
    with tempfile.TemporaryDirectory() as tmp:
        real = [arg.replace(TMP, tmp) for arg in args]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(real)
        document = None
        written = [arg for arg in real if arg.endswith(".json")]
        if written:
            document = json.loads(Path(written[0]).read_text(encoding="utf-8"))
            document.pop("_meta", None)
    return code, stdout.getvalue().replace(tmp, TMP).splitlines(), document


def report_lines(lines: List[str]) -> List[str]:
    """``lines`` without those naming an output path, and without the
    blank line beside one."""
    return [
        line
        for index, line in enumerate(lines)
        if TMP not in line
        and (line or not any(TMP in near for near in lines[max(0, index - 1) : index + 2]))
    ]


RECORDED = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else {}


def test_recording_covers_every_command_non_vacuously():
    assert sorted(RECORDED) == sorted(COMMANDS)
    for name, case in RECORDED.items():
        assert case["argv"] == COMMANDS[name]
        assert case["exit_code"] == 0, name
        assert len(report_lines(case["stdout"])) >= 3, name
    assert any("wrote" in line for line in RECORDED["soak_seed7_5s_json"]["stdout"])
    assert RECORDED["replication_seed11_chaos_json"]["json"]["replication"]["acked"] > 0


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_driver_prints_what_it_printed(name):
    case = RECORDED[name]
    code, stdout, document = run(COMMANDS[name])
    assert report_lines(stdout) == report_lines(case["stdout"])
    assert code == case["exit_code"]
    assert document == case.get("json")


def _record() -> None:
    recorded = {}
    for name, argv in COMMANDS.items():
        code, stdout, document = run(argv)
        recorded[name] = {"argv": argv, "exit_code": code, "stdout": stdout}
        if document is not None:
            recorded[name]["json"] = document
        print(f"{name}: exit {code}", file=sys.stderr)
    DATA.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _record()
