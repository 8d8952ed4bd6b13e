"""Which definitions under ``src/repro`` CI's commands run.

``python -m tests._runsurface``, from the repository root, runs every
non-test command of ``.github/workflows/ci.yml`` (:data:`COMMANDS`, and
every example) with a ``sitecustomize`` on ``PYTHONPATH`` that records
each code object called under ``src/repro``, in every thread and every
process.  It then names each non-dunder function or method that ran in
none of them, and exits 1 when one is not listed in
``tests/unit/test_src_surface.py`` (``ALLOWED`` and ``NEVER_RUN``) or
when a listed one ran.  Docstring-only and ``...`` bodies (``Protocol``
members) are exempt.

A process dumps what it saw at exit, in ``os._exit`` (the bench forks
its executions) and on ``SIGTERM`` (``repro.net serve`` children).  A
process killed by ``SIGKILL`` records nothing.  A command's own verdict
is left to the CI step that runs it: timing gates flake under the hook.
"""

from __future__ import annotations

import ast
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
sys.path.insert(0, str(ROOT / "tests" / "unit"))
from test_src_surface import ALLOWED, NEVER_RUN, _definitions  # noqa: E402

#: The commands of ``ci.yml`` that run the program rather than a test
#: suite, as CI writes them (the examples loop aside, see ``commands``).
#: ``test_ci_surface.py`` fails when ci.yml runs one that is not here.
COMMANDS = (
    "PYTHONPATH=src python -m repro.obs report --servers 12 --files 400 --ops 500 --trace-out /tmp/spans.jsonl --prom-out /tmp/metrics.prom",
    "PYTHONPATH=src python -m repro.traces generate --profile HP --files 2000 --ops 10000 --out /tmp/hp.trace",
    "PYTHONPATH=src python -m repro.traces intensify --tif 4 --in /tmp/hp.trace --out /tmp/hp_x4.trace",
    "PYTHONPATH=src python -m repro.traces stats --in /tmp/hp_x4.trace",
    "PYTHONPATH=src python -m repro.gateway bench --seed 7 --json /tmp/stats.json",
    "PYTHONPATH=src python -m repro.gateway bench --seed 7 --chaos --json /tmp/stats.json",
    "PYTHONPATH=src python -m repro.gateway bench --seed 7 --ops 2000 --trace-out /tmp/obs-spans.jsonl --json /tmp/stats.json",
    "PYTHONPATH=src python -m repro.gateway bench --cohort 4 --seed 7 --json /tmp/stats.json",
    "PYTHONPATH=src python -m repro.gateway bench --cohort 2 --seed 0 --ops 4000 --files 1000 --json /tmp/stats.json",
    "PYTHONPATH=src python -m repro.gateway bench --writeback --seed 7 --json /tmp/stats.json",
    "PYTHONPATH=src python -m repro.gateway bench --writeback --seed 7 --chaos --json /tmp/stats.json",
    "PYTHONPATH=src python -m repro.gateway bench --tenants 4 --seed 7 --json /tmp/stats.json",
    "PYTHONPATH=src python -m repro.replication drill --seed 11 --chaos --rpo-bound 64 --json /tmp/stats.json",
    "PYTHONPATH=src python -m repro.faults soak --seed 7 --duration-s 5 --json /tmp/stats.json",
    "PYTHONPATH=src python -m repro.faults drill --servers 9 --seed 0",
    "PYTHONPATH=src python -m repro.obs slo --seed 0",
    "PYTHONPATH=src python -m repro.obs pipeline --seed 7",
    "PYTHONPATH=src python -m repro.replication drill --transport tcp --servers 2 --files 100 --ops 300 --redirect-ops 80 --seed 7",
    "PYTHONPATH=src python benchmarks/obs_overhead.py",
    "PYTHONPATH=src python -m repro.obs pipeline --seed 7 --trace-out /tmp/pipe-spans.jsonl --flight-dir /tmp/flight",
    "PYTHONPATH=src python -m repro.obs assemble /tmp/pipe-spans.jsonl --chains-only",
    "PYTHONPATH=src python -m repro.faults soak --seed 7 --duration-s 5 --trace-out /tmp/soak-spans.jsonl --flight-dir /tmp/soak-flight",
    "PYTHONPATH=src python -m repro.obs assemble /tmp/soak-spans.jsonl",
    "PYTHONPATH=src python -m repro.experiments --check tests/integration/data/experiments",
    "PYTHONPATH=src python -m pytest -q --benchmark-disable benchmarks",
    "python -m bench run --quick",
    "PYTHONHASHSEED=0 PYTHONPATH=src:. python benchmarks/lines_per_op.py --seed 7 --seconds 1",
)

HOOK = '''\
import atexit, os, signal, sys, threading

_seen = {}  # id(code) -> code: equal code objects from two files are two


def _profile(frame, event, arg):
    code = frame.f_code
    _seen[id(code)] = code


def _dump():
    root = os.environ["RUNSURFACE_SRC"]
    real, rows = {}, set()
    for code in list(_seen.values()):
        name = code.co_filename
        if name not in real:
            real[name] = os.path.realpath(name)
        if real[name].startswith(root):
            rows.add(f"{real[name]}\\t{code.co_firstlineno}\\t{code.co_name}\\n")
    path = os.path.join(os.environ["RUNSURFACE_OUT"], f"{os.getpid()}.txt")
    with open(path, "a", encoding="utf-8") as out:
        out.writelines(rows)


def _exit(status, _exit=os._exit):
    _dump()
    _exit(status)


def _terminated(signum, frame):
    _dump()
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


os._exit = _exit
atexit.register(_dump)
if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
    signal.signal(signal.SIGTERM, _terminated)
sys.setprofile(_profile)
threading.setprofile(_profile)
'''

Key = Tuple[str, int, str]  # (file, first line, name)


def commands() -> List[str]:
    """:data:`COMMANDS`, and CI's loop over ``examples/*.py`` unrolled."""
    examples = sorted((ROOT / "examples").glob("*.py"))
    return [
        f"PYTHONPATH=src python examples/{path.name}" for path in examples
    ] + list(COMMANDS)


def record(lines: Iterable[str], cwd: Path = ROOT, src: Path = SRC) -> Set[Key]:
    """Run each command line under the hook; the code objects under
    ``src`` that any process called, as ``(file, first line, name)``.
    Returns whatever ran, however each command exited."""
    with tempfile.TemporaryDirectory() as scratch:
        hook_dir = Path(scratch, "hook")
        out = Path(scratch, "out")
        hook_dir.mkdir()
        out.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        for line in lines:
            words = shlex.split(line)
            env = dict(os.environ, PYTHONPATH="", RUNSURFACE_OUT=str(out),
                       RUNSURFACE_SRC=str(src.resolve()) + os.sep)
            while "=" in words[0]:
                name, value = words.pop(0).split("=", 1)
                env[name] = value
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, (str(hook_dir), env["PYTHONPATH"]))
            )
            if words[0] == "python":
                words[0] = sys.executable
            status = subprocess.run(
                words, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            ).returncode
            print(f"exit {status:3d}  {line}", flush=True)
        ran = set()
        for dump in out.iterdir():
            for row in dump.read_text(encoding="utf-8").splitlines():
                filename, line_no, name = row.split("\t")
                ran.add((filename, int(line_no), name))
        return ran


def _stub(node: ast.AST) -> bool:
    """A body of a docstring and/or ``...`` only."""
    return all(
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        for stmt in node.body
    )


def definitions(src: Path = SRC) -> Dict[Key, str]:
    """Every non-dunder, non-stub function or method under ``src``,
    keyed as :func:`record` keys a code object, → its qualified name.
    A code object's first line is its first decorator's."""
    found = {}
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for qualified, node in _definitions(tree, ".".join(parts)):
            if isinstance(node, ast.ClassDef) or _stub(node):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            found[(str(path.resolve()), first, node.name)] = qualified
    return found


def compare(
    ran: Set[Key], defined: Dict[Key, str], listed: Iterable[str]
) -> Tuple[List[str], List[str]]:
    """``(unlisted, stale)``: the definitions that never ran and are not
    listed, and the listed names that are no never-run definition."""
    never = {name for key, name in defined.items() if key not in ran}
    listed = set(listed)
    return sorted(never - listed), sorted(listed - never)


def main() -> int:
    ran = record(commands())
    defined = definitions()
    unlisted, stale = compare(ran, defined, {**ALLOWED, **NEVER_RUN})
    where = {
        name: f"{Path(key[0]).relative_to(ROOT)}:{key[1]}"
        for key, name in defined.items()
        if key not in ran
    }
    for name in unlisted:
        print(f"never run, not listed: {name} ({where[name]})")
    for name in stale:
        print(f"listed, but ran (or is gone): {name}")
    if unlisted or stale:
        print(
            "give each never-run definition a caller that CI runs, delete "
            "it, or list it in tests/unit/test_src_surface.py with its "
            "reason; drop each stale entry"
        )
        return 1
    print(f"every never-run definition is listed ({len(ALLOWED) + len(NEVER_RUN)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
