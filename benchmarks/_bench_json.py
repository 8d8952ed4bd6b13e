"""Machine-readable benchmark summaries (``BENCH_*.json``).

Benchmarks in this directory call :func:`update_bench_json` to merge one
named entry into a JSON artifact at the repo root (``BENCH_cohort.json``,
...).  Each file maps entry name → flat stats dict beside a ``_meta``
provenance block (:func:`repro.gateway.scenario.run_metadata`, the same
one the CLIs stamp), so future PRs can diff numbers without scraping
pytest-benchmark's console table.

The artifacts are regenerated on every run (entries merge by name; a file
survives partial runs).  Timing-derived fields (ops/sec) vary with the host;
everything derived from the deterministic simulation (hit rates, query
counts, virtual-latency percentiles) is stable across machines.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Optional

from repro.gateway.scenario import run_metadata

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Process start (module import) time: the ``_meta`` block reports how
#: long the benchmark run had been going when the artifact was written.
_RUN_START = time.time()


def update_bench_json(
    filename: str,
    entry_name: str,
    entry: Dict[str, object],
    root: Optional[Path] = None,
) -> Path:
    """Merge ``entry`` under ``entry_name`` into ``<root>/<filename>``."""
    target = (root or REPO_ROOT) / filename
    payload: Dict[str, Dict[str, object]] = {}
    if target.exists():
        try:
            payload = json.loads(target.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            payload = {}
    if not isinstance(payload, dict):
        payload = {}
    payload[entry_name] = entry
    payload["_meta"] = run_metadata(time.time() - _RUN_START)
    target.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target
