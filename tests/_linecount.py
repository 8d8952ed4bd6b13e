"""Counted, not timed: the scaling tests' shared line counter.

``lines_executed(call, roots)`` runs ``call()`` under ``sys.settrace`` and
returns how many source lines it executed in files under ``roots`` — the
unit in which ``test_gateway_scaling.py`` and ``test_mutation_scaling.py``
state that a step costs the same at two sizes, without a clock.
"""

import sys


def lines_executed(call, roots):
    """Source lines ``call()`` executes in files below ``roots`` (a path
    prefix or a tuple of them)."""
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if not frame.f_code.co_filename.startswith(roots):
            return None
        if event == "line":
            lines += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return lines
