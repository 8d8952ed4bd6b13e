"""The scenario shell: run, print, emit, gate — once, for every seeded driver.

Every seeded driver of the repository (the four ``python -m
repro.gateway bench`` scenarios, ``python -m repro.faults soak|drill``,
``python -m repro.replication drill``, ``python -m repro.obs
slo|pipeline``) is a function ``scenario(spec, tracer=None,
flight=None) -> ScenarioResult`` of a frozen spec whose
``__post_init__`` holds its range checks.  :func:`run_scenario` is the
tail they share: collect spans and flight rings when asked, print the
report, write ``--json`` beside a ``_meta`` provenance block, dump the
rings on a red gate, and turn the gates into the exit code.
:func:`build_fleet` is the populated, synchronized fleet most of them
stand on.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.obs.export import write_spans_jsonl
from repro.obs.flight import FlightRecorderHub
from repro.obs.trace import CollectingTracer


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


def require_positive(spec, *names: str) -> None:
    """Raise ``ValueError`` unless every named field of ``spec`` is > 0."""
    for name in names:
        value = getattr(spec, name)
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


def parse_spec(parser: argparse.ArgumentParser, spec_type, **fields):
    """``spec_type(**fields)``; a range check it fails is a usage error
    (exit 2), as an argparse type error would be."""
    try:
        return spec_type(**fields)
    except ValueError as exc:
        parser.error(str(exc))


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
    the stats ``--json`` writes, the rendered report, and one message per
    failed gate."""

    stats: Dict[str, object]
    report: str
    failures: List[str]


def run_scenario(
    name: str,
    scenario: Callable[..., ScenarioResult],
    spec,
    json_path: Optional[str] = None,
    json_key: Optional[str] = None,
    trace_out: Optional[str] = None,
    flight_dir: Optional[str] = None,
    observed: bool = False,
) -> int:
    """Run, print, emit, gate: the tail every scenario shares.

    Spans are collected for ``trace_out`` and flight rings kept for
    ``flight_dir``; an ``observed`` scenario gates on its own spans and
    dumps, so it gets both either way.  JSON is written only to an
    explicit ``json_path`` (stats nested under ``json_key`` when given,
    beside a ``_meta`` provenance block).  A red gate dumps the flight
    rings (they hold the events leading up to it) as
    ``<name>-gate-failure``; exit code 1.
    """
    started = time.time()
    tracer = flight = None
    if trace_out or observed:
        tracer = CollectingTracer()
    if flight_dir or observed:
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
    if trace_out:
        written = write_spans_jsonl(tracer.finished_spans(), trace_out)
        print(f"wrote {written} spans to {trace_out}")
    if flight_dir:
        print(f"flight recorder: {len(flight.dumps)} dump(s) in {flight_dir}")
    if result.failures:
        print("FAILED: " + "; ".join(result.failures))
        return 1
    return 0
