"""Counted, not timed: the scaling tests' shared line counter.

``lines_executed(call, roots)`` runs ``call()`` under ``sys.settrace`` and
returns how many source lines it executed in files under ``roots`` — the
unit in which ``test_gateway_scaling.py`` and ``test_mutation_scaling.py``
state that a step costs the same at two sizes, without a clock.
"""

import sys


def lines_executed(call, roots, limit=None):
    """Source lines ``call()`` executes in files below ``roots`` (a path
    prefix or a tuple of them); past ``limit`` lines it is stopped with
    an ``AssertionError`` instead of run to the end."""
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if not frame.f_code.co_filename.startswith(roots):
            return None
        if event == "line":
            lines += 1
            if limit is not None and lines > limit:
                raise AssertionError(f"more than {limit} lines executed")
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return lines
