"""Crash flight recorder: bounded per-component event rings.

Every component that participates in the distributed pipeline (gateway
clients, cohort members, the fault injector, the prototype cluster) can
hold a :class:`FlightRecorder` — a fixed-capacity ring buffer of recent
events.  Recording is allocation-light (one tuple per event, oldest
evicted by ``deque(maxlen=...)``) and strictly opt-in: components default
to the shared :data:`NULL_RECORDER`, whose ``enabled`` flag lets hot
paths skip even the argument packing (``if recorder.enabled: ...``), so
the disabled configuration stays zero-overhead and bit-identical.

A :class:`FlightRecorderHub` owns the per-component recorders and turns
them into forensics: :meth:`FlightRecorderHub.dump` snapshots every ring
into one JSON-able dict — wired to fire automatically on a node crash
(``PlanFaultInjector.silence``), a staleness-harness violation
(:class:`~repro.gateway.staleness.StalenessAuditor`) and bench gate
failures, so every red result ships the events that led up to it.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

#: Default per-component ring capacity (events, not bytes).
DEFAULT_CAPACITY = 256


class FlightRecorder:
    """A bounded ring of ``(time_s, kind, detail)`` events."""

    __slots__ = ("component", "capacity", "_events")

    enabled = True

    def __init__(
        self, component: str, capacity: int = DEFAULT_CAPACITY
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.component = component
        self.capacity = capacity
        self._events: Deque[Tuple[float, str, Dict[str, Any]]] = deque(
            maxlen=capacity
        )

    def record(self, kind: str, t: float = 0.0, **detail: Any) -> None:
        """Append one event; the oldest is evicted once the ring is full."""
        self._events.append((t, kind, detail))

    def events(self) -> List[Dict[str, Any]]:
        """The retained events, oldest first, as JSON-able dicts."""
        return [
            {"time_s": t, "kind": kind, **({"detail": detail} if detail else {})}
            for t, kind, detail in self._events
        ]

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return (
            f"FlightRecorder({self.component!r}, "
            f"{len(self._events)}/{self.capacity})"
        )


class NullFlightRecorder:
    """Shared no-op recorder: the zero-overhead disabled default."""

    __slots__ = ()

    enabled = False
    component = ""
    capacity = 0

    def record(self, kind: str, t: float = 0.0, **detail: Any) -> None:
        pass

    def events(self) -> List[Dict[str, Any]]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullFlightRecorder()"


#: Module-level singleton used as the default everywhere.
NULL_RECORDER = NullFlightRecorder()


class FlightRecorderHub:
    """Owns per-component recorders and dumps them on demand.

    Every recorder the hub creates holds :data:`DEFAULT_CAPACITY` events.

    Parameters
    ----------
    dump_dir:
        Optional directory; when set, each :meth:`dump` also writes a
        ``flight-<n>-<reason>.json`` file there (created on first dump).
    """

    enabled = True

    def __init__(self, dump_dir: Optional[str] = None) -> None:
        self.capacity = DEFAULT_CAPACITY
        self.dump_dir = dump_dir
        self._recorders: Dict[str, FlightRecorder] = {}
        #: Every dump taken, in order (kept in memory for the harnesses).
        self.dumps: List[Dict[str, Any]] = []

    def recorder(self, component: str) -> FlightRecorder:
        """The (lazily created) recorder for one component."""
        recorder = self._recorders.get(component)
        if recorder is None:
            recorder = FlightRecorder(component, self.capacity)
            self._recorders[component] = recorder
        return recorder

    def dump(self, reason: str, now: float = 0.0) -> Dict[str, Any]:
        """Snapshot every ring into one forensic record.

        The record is appended to :attr:`dumps` and, when ``dump_dir`` is
        set, written as a JSON file whose name carries the dump ordinal
        and a slug of ``reason``.
        """
        record = {
            "reason": reason,
            "time_s": now,
            "components": {
                name: recorder.events()
                for name, recorder in sorted(self._recorders.items())
            },
        }
        self.dumps.append(record)
        if self.dump_dir is not None:
            os.makedirs(self.dump_dir, exist_ok=True)
            slug = "".join(
                ch if ch.isalnum() or ch in "-_" else "-" for ch in reason
            )[:60]
            path = os.path.join(
                self.dump_dir, f"flight-{len(self.dumps):03d}-{slug}.json"
            )
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(record, handle, sort_keys=True, indent=2)
                handle.write("\n")
        return record

    def __len__(self) -> int:
        return len(self.dumps)

    def __repr__(self) -> str:
        return (
            f"FlightRecorderHub(components={len(self._recorders)}, "
            f"dumps={len(self.dumps)})"
        )
