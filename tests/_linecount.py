"""Counted, not timed: the scaling tests' shared line counter.

``lines_executed(call, roots)`` runs ``call()`` under ``sys.settrace`` and
returns how many source lines it executed in files under ``roots`` — the
unit in which ``test_gateway_scaling.py`` and ``test_mutation_scaling.py``
state that a step costs the same at two sizes, without a clock.  With
``by_package=True`` the count comes back split by top-level package of
``src/repro`` (``{"gateway": 41, "core": 7}``), so a test can state which
layer a step's lines are spent in.
"""

import os
import sys

import repro

REPRO_DIR = os.path.dirname(repro.__file__)


def _package(filename):
    """The top-level package (or module) of ``src/repro`` that
    ``filename`` belongs to: ``gateway`` for ``repro/gateway/cache.py``,
    ``scenario`` for ``repro/scenario.py``."""
    head = os.path.relpath(filename, REPRO_DIR).split(os.sep)[0]
    return head[:-3] if head.endswith(".py") else head


def lines_executed(call, roots, limit=None, by_package=False):
    """Source lines ``call()`` executes in files below ``roots`` (a path
    prefix or a tuple of them); past ``limit`` lines it is stopped with
    an ``AssertionError`` instead of run to the end.

    ``by_package=True`` returns a dict from top-level package under
    ``src/repro`` to its lines instead of the total (``roots`` must then
    lie under ``src/repro``; a package that ran no line is absent)."""
    lines = 0
    files = {}

    def tracer(frame, event, arg):
        nonlocal lines
        filename = frame.f_code.co_filename
        if not filename.startswith(roots):
            return None
        if event == "line":
            lines += 1
            if by_package:
                files[filename] = files.get(filename, 0) + 1
            if limit is not None and lines > limit:
                raise AssertionError(f"more than {limit} lines executed")
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    if not by_package:
        return lines
    packages = {}
    for filename, count in files.items():
        package = _package(filename)
        packages[package] = packages.get(package, 0) + count
    return packages
