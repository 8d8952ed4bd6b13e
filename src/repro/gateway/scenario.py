"""The gateway scenario engine: one harness, pointed at one fleet.

Every ``python -m repro.gateway bench`` scenario (shield, cohort,
write-back, tenants) is the same experiment under different parameters:
size a fleet for the namespace, populate and synchronize it, front it
with :class:`~repro.gateway.client.MetadataClient`\\ s, replay a seeded
trace through them, drain admission.  This module holds the one copy
of each of those steps; a scenario (:mod:`repro.gateway.scenarios`,
:mod:`repro.gateway.tenant_bench`) adds only its handlers, its audit
and its gates, and :func:`repro.scenario.run_scenario` reports, emits
JSON and gates it like every other seeded driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core.cluster import GHBACluster
from repro.gateway.client import GatewayConfig, GatewayResponse, MetadataClient
from repro.scenario import build_fleet, require_positive
from repro.traces.profiles import PROFILES
from repro.traces.records import MetadataOp, TraceRecord
from repro.traces.synthetic import SyntheticTraceGenerator


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything that determines a scenario run (same spec, same stats).

    The CLI exposes only the fields some CI step, test, example or
    documented command line passes; the rest are defaults here.
    """

    seed: int = 0
    profile: str = "HP"
    servers: int = 20
    group_size: int = 5
    files: int = 3_000
    ops: int = 5_000
    #: Concurrent clients: lookups reach the gateway ``clients`` at a time.
    clients: int = 8
    cache_capacity: int = 4096
    lease_ttl_s: float = 5.0
    rate_per_s: float = 2000.0
    hot_threshold: int = 32
    #: Rows of the shield report's hotspot table.
    top: int = 5
    #: Shield, write-back: run beneath a seeded fault plan.
    chaos: bool = False
    chaos_start_s: float = 0.5
    chaos_window_s: float = 1.0
    #: Cohort, tenants: trace arrivals per virtual second (lower stretches
    #: re-reference intervals past the staleness bound).
    trace_rate: float = 150.0
    cohort: int = 4
    heartbeat_s: float = 0.05
    suspect_after_s: float = 0.15
    ttl_clamp_s: float = 0.10
    flush_max_pending: int = 16
    flush_age_s: float = 0.25
    tenants: int = 4
    #: Skew of tenant popularity (``u0`` is the noisy neighbour).
    tenant_zipf: float = 2.0
    #: Trace-rate sweep points (default: ``trace_rate`` and 1000).
    tenant_rates: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        require_positive(
            self, "servers", "files", "ops", "cohort", "tenants",
            "flush_max_pending",
        )

    def trace(
        self, ops_per_second: Optional[float] = None, tenants=None
    ) -> Tuple[List[TraceRecord], List[str]]:
        """The seeded workload: ``(records, populated paths)``."""
        rate = {} if ops_per_second is None else {"ops_per_second": ops_per_second}
        generator = SyntheticTraceGenerator(
            PROFILES[self.profile], self.files, self.seed, tenants=tenants, **rate
        )
        return list(generator.generate(self.ops)), generator.paths

    def fleet(self, paths: Iterable[str], tracer=None, faults=None) -> GHBACluster:
        return build_fleet(
            self.servers, self.files, self.seed, paths,
            group_size=self.group_size, tracer=tracer, faults=faults,
        )

    def gateway_config(self, **overrides) -> GatewayConfig:
        settings = dict(
            cache_capacity=self.cache_capacity,
            lease_ttl_s=self.lease_ttl_s,
            rate_per_s=self.rate_per_s,
            burst=max(self.clients * 4.0, 64.0),
            hot_threshold=self.hot_threshold,
        )
        settings.update(overrides)
        return GatewayConfig(**settings)


def fault_clock(fleet: GHBACluster) -> Optional[Callable[[float], None]]:
    """``advance`` of the fleet's fault plan (None on a healthy fleet)."""
    return fleet.faults.advance if fleet.faults.enabled else None


def replay(
    records: Sequence[TraceRecord],
    handlers,
    clients: int = 1,
    tick_s: Optional[float] = None,
    advance: Optional[Callable[[float], None]] = None,
) -> float:
    """Drive ``handlers`` with ``records`` in trace order; returns the
    time of the last tick.

    ``handlers.lookups(batch, now)`` receives a tick of ``(trace index,
    record)`` pairs: ``clients`` lookups at a time, stamped with the
    arrival that filled the tick — or, with ``tick_s``, every arrival of
    one fixed window of the trace clock, stamped with the window's end
    (empty windows tick too: the admission queue drains on them).  A
    mutation first flushes the open tick, so effects keep trace order,
    then reaches ``handlers.create`` / ``unlink`` / ``rename(index,
    record, now)`` exactly once.  ``advance(now)`` moves whatever clock
    the scenario keeps besides the trace's own (fault plan, crash
    windows, cohort heartbeats): before every record, or with ``tick_s``
    before every window.
    """
    advance = advance or (lambda now: None)
    tick: List[Tuple[int, TraceRecord]] = []
    windowed = tick_s is not None
    boundary = tick_s if windowed else 0.0
    now = 0.0

    def flush(at: float) -> None:
        handlers.lookups(tuple(tick), at)
        tick.clear()

    for index, record in enumerate(records):
        now = record.timestamp
        if windowed:
            while now >= boundary:
                advance(boundary)
                flush(boundary)
                boundary += tick_s
        else:
            advance(now)
        if record.op.is_lookup:
            tick.append((index, record))
            if not windowed and len(tick) >= clients:
                flush(now)
            continue
        if tick:
            flush(now)
        if record.op is MetadataOp.CREATE:
            handlers.create(index, record, now)
        elif record.op is MetadataOp.UNLINK:
            handlers.unlink(index, record, now)
        elif record.op is MetadataOp.RENAME:
            handlers.rename(index, record, now)
    if windowed:
        now = boundary
    if tick or windowed:
        flush(now)
    return now


def drain(
    gateway: MetadataClient,
    now: float,
    account: Callable[[List[GatewayResponse]], None],
) -> None:
    """Pump the admission queue to quiescence: each step advances past
    another queue deadline, so everything parked either gets its token
    or sheds explicitly; ``account`` sees every response."""
    for step in range(1, 41):
        account(gateway.pump(now + step * gateway.admission.queue_deadline_s))
        if gateway.admission.queue_depth == 0:
            break
