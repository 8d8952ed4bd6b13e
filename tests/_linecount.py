"""Counted, not timed: the scaling tests' shared line counter.

``lines_executed(call, roots)`` runs ``call()`` under ``sys.settrace`` and
returns how many source lines it executed in files under ``roots`` — the
unit in which ``test_gateway_scaling.py`` and ``test_mutation_scaling.py``
state that a step costs the same at two sizes, without a clock.  With
``by_package=True`` the count comes back split by top-level package of
``src/repro`` (``{"gateway": 41, "core": 7}``), so a test can state which
layer a step's lines are spent in.  Code compiled from strings (a
dataclass's ``__init__``, a NamedTuple's ``__new__``: frames whose file is
``<string>``) lies under no root and is not counted, unless a caller opts
in with ``generated=True`` and reads that count on its own.
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


def lines_executed(call, roots, limit=None, by_package=False, generated=False):
    """Source lines ``call()`` executes in files below ``roots`` (a path
    prefix or a tuple of them); past ``limit`` lines it is stopped with
    an ``AssertionError`` instead of run to the end.

    ``by_package=True`` returns a dict from top-level package under
    ``src/repro`` to its lines instead of the total (``roots`` must then
    lie under ``src/repro``; a package that ran no line is absent).

    ``generated=True`` returns ``(lines, generated)``: ``lines`` as above,
    and the lines of ``<string>`` frames called from below ``roots`` (or
    from such a frame), booked with ``by_package`` to the package of the
    nearest caller that is not generated.  They are not in ``lines`` and
    not held to ``limit``."""
    lines = 0
    files = {}
    made = {}

    def tracer(frame, event, arg):
        nonlocal lines
        filename = frame.f_code.co_filename
        if not filename.startswith(roots):
            if generated and filename == "<string>":
                return generated_tracer(frame)
            return None
        if event == "line":
            lines += 1
            if by_package:
                files[filename] = files.get(filename, 0) + 1
            if limit is not None and lines > limit:
                raise AssertionError(f"more than {limit} lines executed")
        return tracer

    def generated_tracer(frame):
        caller = frame.f_back
        while caller is not None and caller.f_code.co_filename == "<string>":
            caller = caller.f_back
        if caller is None or not caller.f_code.co_filename.startswith(roots):
            return None
        owner = _package(caller.f_code.co_filename) if by_package else None

        def local(frame, event, arg):
            if event == "line":
                made[owner] = made.get(owner, 0) + 1
            return local

        return local

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    if by_package:
        packages = {}
        for filename, count in files.items():
            package = _package(filename)
            packages[package] = packages.get(package, 0) + count
        result = packages
    else:
        result = lines
    if not generated:
        return result
    return result, made if by_package else made.get(None, 0)
