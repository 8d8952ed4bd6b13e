"""Span recording from outside the program.

A traced pass replaces public entry points of ``repro`` with wrappers
that record one span per call — ``(name, start, end, parent, op)`` — in
memory.  A span's *self time* is its duration minus the time its child
spans cover; summing self times by name gives each layer's share of the
timed wall without double counting.  The wrappers are removed again by
:meth:`Patches.remove`, restoring the original attributes by identity.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    """One recorded call.

    ``parent`` is the index (within the same thread's span list) of the
    enclosing span, -1 for a root; ``op`` numbers the root spans of a
    thread, so every span of one client call shares an identifier.
    ``units`` is the work the call did as a count (filters probed, keys
    in a batch), 0 when the wrapper has no counter.
    """

    name: str
    start: float
    end: float
    parent: int
    op: int
    units: int = 0


class NameTotals(NamedTuple):
    calls: int
    self_s: float
    total_s: float
    units: int


class _ThreadLog:
    __slots__ = ("spans", "stack", "next_op", "thread")

    def __init__(self, thread: str) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.next_op = 0
        self.thread = thread


class SpanRecorder:
    """In-memory span store, one append-only list per thread."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._lock = threading.Lock()

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        units: Optional[Callable[[tuple, Any], int]] = None,
    ) -> Callable[..., Any]:
        """Return ``fn`` wrapped to record a span named ``name`` per call.

        ``units(args, result)`` counts the work of one call.  While the
        recorder is disabled the wrapper is a plain pass-through.
        """
        recorder = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            log = recorder._log()
            spans, stack = log.spans, log.stack
            if stack:
                parent = stack[-1]
                op = spans[parent].op
            else:
                parent = -1
                op = log.next_op
                log.next_op += 1
            index = len(spans)
            # Placeholder first: children record ``index`` as their parent
            # and read ``op`` from it before this call has an end time.
            spans.append(Span(name, 0.0, 0.0, parent, op))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = Span(name, start, clock(), parent, op)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            count = units(args, result) if units is not None else 0
            spans[index] = Span(name, start, end, parent, op, count)
            return result

        return wrapper

    def threads(self) -> List[Tuple[str, List[Span]]]:
        """Every thread's completed spans, in recording order."""
        with self._lock:
            logs = list(self._logs)
        return [(log.thread, list(log.spans)) for log in logs]

    def write_jsonl(self, path, origin: float = 0.0, limit_per_thread: int = 0) -> int:
        """Write one JSON object per span; returns the number written.

        Times are microseconds since ``origin``; ``parent`` refers to the
        ``id`` of a span of the same thread.  ``limit_per_thread`` keeps
        only each thread's first spans (0 = all): a full pass records
        hundreds of thousands, and serializing them costs more than the
        pass itself.
        """
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for thread, spans in self.threads():
                if limit_per_thread:
                    spans = spans[:limit_per_thread]
                for index, span in enumerate(spans):
                    handle.write(
                        json.dumps(
                            {
                                "thread": thread,
                                "id": index,
                                "parent": span.parent,
                                "op": span.op,
                                "name": span.name,
                                "start_us": round((span.start - origin) * 1e6, 3),
                                "end_us": round((span.end - origin) * 1e6, 3),
                                "units": span.units,
                            },
                            separators=(",", ":"),
                        )
                    )
                    handle.write("\n")
                    written += 1
        return written


def self_times(spans: Iterable[Span]) -> Dict[str, NameTotals]:
    """Aggregate one thread's spans by name.

    Self time of a span = its duration − the summed durations of the
    spans whose ``parent`` it is.  Spans of one thread nest strictly
    (siblings never overlap), so the sum *is* the covered time.
    """
    spans = list(spans)
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    totals: Dict[str, List[float]] = {}
    for index, span in enumerate(spans):
        duration = span.end - span.start
        entry = totals.setdefault(span.name, [0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += duration - covered[index]
        entry[2] += duration
        entry[3] += span.units
    return {
        name: NameTotals(int(e[0]), e[1], e[2], int(e[3])) for name, e in totals.items()
    }


def merge_totals(parts: Iterable[Dict[str, NameTotals]]) -> Dict[str, NameTotals]:
    merged: Dict[str, NameTotals] = {}
    for part in parts:
        for name, totals in part.items():
            old = merged.get(name)
            if old is None:
                merged[name] = totals
            else:
                merged[name] = NameTotals(
                    old.calls + totals.calls,
                    old.self_s + totals.self_s,
                    old.total_s + totals.total_s,
                    old.units + totals.units,
                )
    return merged


def root_seconds(spans: Iterable[Span]) -> float:
    """Wall time covered by a thread's root spans."""
    return sum(s.end - s.start for s in spans if s.parent < 0)


class Patches:
    """A set of attribute replacements that can be undone exactly."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def originals(self) -> List[Tuple[object, str, object]]:
        return list(self._saved)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
