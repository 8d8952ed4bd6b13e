"""The gateway scenario engine: one harness, pointed at one fleet.

Every ``python -m repro.gateway bench`` scenario (shield, cohort,
write-back, tenants) is the same experiment under different parameters:
size a fleet for the namespace, populate and synchronize it, front it
with :class:`~repro.gateway.client.MetadataClient`\\ s, replay a seeded
trace through them, drain admission, then report, emit JSON and gate.
This module holds the one copy of each step; a scenario
(:mod:`repro.gateway.scenarios`, :mod:`repro.gateway.tenant_bench`) adds
only its handlers, its audit and its gates.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.gateway.client import GatewayConfig, GatewayResponse, MetadataClient
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
    #: Admission rate as a fraction of the trace rate (< 1 = contention).
    tenant_rate_factor: float = 0.5
    #: Trace-rate sweep points (default: ``trace_rate`` and 1000).
    tenant_rates: Optional[Tuple[float, ...]] = None

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


def build_fleet(
    servers: int,
    files: int,
    seed: int,
    paths: Iterable[str],
    group_size: int = 5,
    tracer=None,
    faults=None,
) -> GHBACluster:
    """A populated, synchronized fleet sized for a ``files``-path namespace
    (filters provisioned at 3x the mean per-MDS share, so placement skew
    and trace creates stay inside the design point)."""
    config = GHBAConfig(
        max_group_size=group_size,
        expected_files_per_mds=max(256, files * 3 // servers),
        lru_capacity=max(256, files // 4),
        lru_filter_bits=1 << 12,
        seed=seed,
    )
    cluster = GHBACluster(servers, config, seed=seed, tracer=tracer, faults=faults)
    cluster.populate(paths)
    cluster.synchronize_replicas(force=True)
    return cluster


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
        account(gateway.pump(now + step * gateway.config.queue_deadline_s))
        if gateway.admission.queue_depth == 0:
            break


def run_metadata(duration_s: float) -> Dict[str, object]:
    """Provenance stamped into every ``--json`` file under ``"_meta"``:
    which machine, toolchain and revision produced the numbers.
    ``git_rev`` is the checkout this module was loaded from ("" when that
    is not a git work tree)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        git_rev = proc.stdout.strip() if proc.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        git_rev = ""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_rev": git_rev,
        "run_duration_s": round(duration_s, 3),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


@dataclass
class ScenarioResult:
    """What ``scenario(spec, tracer=None, flight=None)`` hands the tail:
    machine-readable stats, the rendered report, and one message per
    failed gate."""

    stats: Dict[str, object]
    report: str
    failures: List[str]


def run_scenario(
    name: str,
    scenario: Callable[..., ScenarioResult],
    spec: ScenarioSpec,
    json_path: Optional[str] = None,
    json_key: Optional[str] = None,
    trace_out: Optional[str] = None,
    flight_dir: Optional[str] = None,
) -> int:
    """Run, print, emit, gate: the tail every scenario shares.

    JSON is written only to an explicit ``json_path`` (stats nested
    under ``json_key`` when given, beside a ``_meta`` provenance block).
    A red gate dumps the flight rings (they hold the events leading up
    to it) to ``flight_dir`` as ``<name>-gate-failure``; exit code 1.
    """
    started = time.time()
    tracer = flight = None
    if trace_out:
        from repro.obs.trace import CollectingTracer

        tracer = CollectingTracer()
    if flight_dir:
        from repro.obs.flight import FlightRecorderHub

        flight = FlightRecorderHub(dump_dir=flight_dir)

    result = scenario(spec, tracer=tracer, flight=flight)
    print(result.report)
    if json_path:
        payload = {json_key: result.stats} if json_key else dict(result.stats)
        payload["_meta"] = run_metadata(time.time() - started)
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote bench stats to {json_path}")
    if result.failures and flight is not None:
        flight.dump(f"{name}-gate-failure")
    if tracer is not None:
        from repro.obs.export import write_spans_jsonl

        written = write_spans_jsonl(tracer.finished_spans(), trace_out)
        print(f"wrote {written} spans to {trace_out}")
    if flight is not None:
        print(f"flight recorder: {len(flight.dumps)} dump(s) in {flight_dir}")
    if result.failures:
        print("FAILED: " + "; ".join(result.failures))
        return 1
    return 0
