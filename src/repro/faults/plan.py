"""Seeded fault schedules: what goes wrong, when, and to whom.

A :class:`FaultPlan` is pure data — rates for the memoryless faults
(message drop, delay, duplication) plus explicit timed events (node
crashes with optional restores, group-scoped network partitions).  The
:class:`~repro.faults.injector.PlanFaultInjector` turns the plan into
per-message decisions with a dedicated seeded RNG, so the same plan and
seed always produce the same injected fault sequence.

Times are in *virtual* seconds: the prototype soak advances virtual time
one operation at a time, and the heartbeat drill advances the injector and
the :class:`~repro.core.failure.HeartbeatMonitor` to each crash time.
Nothing in this module reads the wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple


@dataclass(frozen=True)
class CrashEvent:
    """Kill ``node_id`` at ``at_s``; optionally restore it later.

    ``restore_at_s`` of ``None`` means the node stays down for the rest of
    the run.  The injector only *tracks* silence windows — actually killing
    a prototype node (and restoring it from its checkpoint) is the chaos
    driver's job, so the same plan drives both the threaded prototype and
    the simulator's heartbeat drills.
    """

    at_s: float
    node_id: int
    restore_at_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"at_s must be non-negative, got {self.at_s}")
        if self.restore_at_s is not None and self.restore_at_s <= self.at_s:
            raise ValueError(
                f"restore_at_s must follow at_s: {self.restore_at_s} <= {self.at_s}"
            )


@dataclass(frozen=True)
class Partition:
    """A group-scoped network partition active on ``[start_s, end_s)``.

    ``island`` is the set of nodes cut off from the rest of the system;
    messages *within* the island (or entirely outside it) still flow,
    messages crossing the boundary are dropped.  Client requests (negative
    sender IDs) are never partitioned — clients can always reach any MDS,
    mirroring the paper's model where only the MDS interconnect degrades.
    """

    start_s: float
    end_s: float
    island: FrozenSet[int]

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ValueError(
                f"partition window empty: [{self.start_s}, {self.end_s})"
            )
        if not self.island:
            raise ValueError("partition island must be non-empty")
        object.__setattr__(self, "island", frozenset(self.island))

    def active_at(self, now_s: float) -> bool:
        return self.start_s <= now_s < self.end_s

    def severs(self, sender: int, dest: int) -> bool:
        """True when the link ``sender -> dest`` crosses the island edge."""
        if sender < 0:  # client traffic is never partitioned
            return False
        return (sender in self.island) != (dest in self.island)


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded chaos schedule.

    Attributes
    ----------
    seed:
        Seed of the injector's decision RNG; same plan + seed ⇒ same
        injected fault sequence.
    drop_rate:
        Probability an injectable message is silently dropped.
    delay_rate / delay_ms_min / delay_ms_max:
        Probability (and virtual-latency bounds) of delaying a message.
    duplicate_rate:
        Probability a delivered message arrives twice.
    crashes:
        Timed node kill/restore events, sorted by ``at_s``.
    partitions:
        Group-scoped partition windows.
    """

    seed: int = 0
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    delay_ms_min: float = 0.5
    delay_ms_max: float = 3.0
    duplicate_rate: float = 0.0
    crashes: Tuple[CrashEvent, ...] = ()
    partitions: Tuple[Partition, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_rate", "delay_rate", "duplicate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.delay_ms_min < 0 or self.delay_ms_max < self.delay_ms_min:
            raise ValueError(
                f"delay bounds invalid: [{self.delay_ms_min}, {self.delay_ms_max}]"
            )
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        order = [c.at_s for c in self.crashes]
        if order != sorted(order):
            raise ValueError("crashes must be sorted by at_s")

    def severed(self, sender: int, dest: int, now_s: float) -> bool:
        """True when an active partition cuts the ``sender -> dest`` link."""
        return any(
            p.severs(sender, dest) for p in self.partitions if p.active_at(now_s)
        )
