"""The run-surface recorder runs every program command CI runs.

``tests/_runsurface.py`` keeps its own list of CI's non-test commands
(:data:`~tests._runsurface.COMMANDS`), so that its pass sees what CI's
jobs execute.  This reads ``.github/workflows/ci.yml`` as text and fails
when a command there that runs the program (``-m repro.…``, a
``benchmarks`` script or suite, ``-m bench run``) is missing from that
list, so the two cannot drift.  A scenario-matrix entry is expanded as
its step runs it: ``python -m <run> [<second>] [--json …]``.
"""

from __future__ import annotations

import re
import shlex
from typing import List

from tests._runsurface import COMMANDS, ROOT

CI = ROOT / ".github" / "workflows" / "ci.yml"
PROGRAM = re.compile(r"-m repro\.|benchmarks|-m bench run")


def _normal(line: str) -> str:
    return " ".join(shlex.split(line.split(" | ")[0]))


def ci_commands(text: str) -> List[str]:
    """Every program command of a workflow, as :func:`_normal` writes it."""
    found, entry = [], None
    for raw in re.sub(r"\\\n\s*", " ", text).splitlines():
        key, _, value = raw.strip().removeprefix("- ").partition(": ")
        if key == "name":
            entry = None
        elif key == "run" and value.startswith("repro."):  # a matrix entry
            entry = {"run": value}
            found.append(entry)
        elif key in ("second", "gate") and entry is not None:
            entry[key] = value
        else:
            line = value if key == "run" else raw.strip()
            words = line.split()
            while words and "=" in words[0]:
                words.pop(0)
            if words[:1] == ["python"] and "${{" not in line and PROGRAM.search(line):
                found.append(_normal(line))
    return [
        item if isinstance(item, str) else _normal(
            f"PYTHONPATH=src python -m {item['run']} {item.get('second', '')}"
            + (" --json /tmp/stats.json" if "gate" in item else "")
        )
        for item in found
    ]


def test_the_recorder_runs_every_program_command_of_ci():
    listed = {_normal(line) for line in COMMANDS}
    missing = [line for line in ci_commands(CI.read_text()) if line not in listed]
    assert not missing, (
        f"ci.yml runs {missing}, which tests/_runsurface.py's COMMANDS "
        "lacks: add each there as ci.yml writes it"
    )


def test_the_parser_finds_steps_matrix_entries_and_continuations():
    text = (
        "    strategy:\n"
        "      matrix:\n"
        "        include:\n"
        "          - name: one\n"
        "            run: repro.gateway bench --seed 7\n"
        "            second: --trace-out /tmp/s.jsonl\n"
        "            gate: r['ok']\n"
        "          - name: two\n"
        "            run: repro.obs slo --seed 0\n"
        "    steps:\n"
        "      - name: loop\n"
        "        run: PYTHONPATH=src python -m ${{ matrix.run }} | tee x\n"
        "      - name: suite\n"
        "        run: PYTHONPATH=src python -m pytest -q tests/unit\n"
        "      - name: ledger\n"
        "        run: |\n"
        "          PYTHONPATH=src python -m repro.obs assemble /tmp/a \\\n"
        "            --chains-only | tail -n 2\n"
        "          python -m bench run --quick\n"
    )
    assert ci_commands(text) == [
        "PYTHONPATH=src python -m repro.gateway bench --seed 7 "
        "--trace-out /tmp/s.jsonl --json /tmp/stats.json",
        "PYTHONPATH=src python -m repro.obs slo --seed 0",
        "PYTHONPATH=src python -m repro.obs assemble /tmp/a --chains-only",
        "python -m bench run --quick",
    ]
