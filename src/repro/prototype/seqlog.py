"""One sequenced stream, numbered 1, 2, 3, ... with no holes: the sender's
:class:`SeqLog` above the lowest ack and the receiver's :class:`SeqReceiver`
(a floor plus the records held above a gap).  The gateway cohort, the
write-back acks and cross-cluster replication all run on these two.
"""

from __future__ import annotations

from typing import Dict, Generic, List, Optional, TypeVar

T = TypeVar("T")


class SeqLog(Generic[T]):
    """Sender's side: ``entries[i]`` carries seq ``base + i + 1``."""

    def __init__(self) -> None:
        self.base = 0
        self.entries: List[T] = []

    @property
    def last(self) -> int:
        return self.base + len(self.entries)

    def after(self, seq: int) -> List[T]:
        """The entries numbered above ``seq``."""
        return self.entries[max(seq - self.base, 0):]

    def truncate(self, floor: int) -> int:
        """Drop the entries at or below ``floor`` (clamped at ``last``, so
        the log is never renumbered); returns how many."""
        drop = min(floor, self.last) - self.base
        if drop <= 0:
            return 0
        del self.entries[:drop]
        self.base += drop
        return drop


class SeqReceiver(Generic[T]):
    """Receiver's side: the floor plus the records held above a gap."""

    def __init__(self, floor: int = 0) -> None:
        self.floor = floor
        self.held: Dict[int, T] = {}

    def offer(self, seq: int, entry: T) -> Optional[List[T]]:
        """``None`` for a duplicate; else the records now due, in order
        (empty while ``entry`` waits above a gap)."""
        if seq <= self.floor or seq in self.held:
            return None
        if seq != self.floor + 1:
            self.held[seq] = entry
            return []
        self.floor = seq
        return self._drain([entry])

    def skip_to(self, floor: int) -> List[T]:
        """Give up on everything at or below ``floor``; returns the held
        run that is now due."""
        if floor > self.floor:
            self.floor = floor
            self.held = {s: e for s, e in self.held.items() if s > floor}
        return self._drain([])

    def _drain(self, due: List[T]) -> List[T]:
        while self.floor + 1 in self.held:
            self.floor += 1
            due.append(self.held.pop(self.floor))
        return due
