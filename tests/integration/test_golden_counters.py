"""Golden-counter pins across the packed-bitset swap (ISSUE 9).

The hot-path Bloom overhaul replaced the per-bit substrate with packed
big-int bitsets.  That swap must be *observationally invisible*: same
seed + same fault plan → bit-identical query outcomes, ``ghba_*`` /
``gateway_*`` counters, and fig13/fig14 experiment outputs.  The golden
snapshots in ``data/golden_counters.json`` were captured with the old
per-bit implementation immediately before the swap; these tests pin the
new engine to them.

If one of these tests fails, the substrate changed *behaviour*, not just
speed — that is a bug, not a reason to regenerate.  Regenerate the
goldens only when a PR intentionally changes workload semantics:

    PYTHONPATH=src python tests/integration/test_golden_counters.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from unittest import mock

from repro.bloom import BloomFilter
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.experiments import fig08_10, fig12, fig13, fig14, scalability, table05
from repro.faults import FaultPlan, PlanFaultInjector
from repro.traces.profiles import HP_PROFILE
from repro.traces.synthetic import generate_trace

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_counters.json"


def _digest(payload: object) -> str:
    """Stable content hash of any JSON-representable structure."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _counter_snapshot(metrics, prefixes=("ghba_", "gateway_")) -> dict:
    """Every ghba_*/gateway_* counter series currently in ``metrics``."""
    snapshot = {}
    for family in metrics.families():
        if family.kind != "counter" or not family.name.startswith(prefixes):
            continue
        series = family.as_dict()
        if series:
            snapshot[family.name] = {k: v for k, v in sorted(series.items())}
    return snapshot


def _round_floats(value, places=9):
    if isinstance(value, float):
        return round(value, places)
    if isinstance(value, dict):
        return {k: _round_floats(v, places) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v, places) for v in value]
    return value


# ----------------------------------------------------------------------
# Scenarios.  Each returns a JSON-representable dict; everything inside
# derives from a fixed seed, so the old and new substrates must produce
# identical structures.
# ----------------------------------------------------------------------

def scenario_ghba_fault_replay() -> dict:
    """Seeded query replay under a fault plan: the full L1-L4 walk."""
    config = GHBAConfig(
        max_group_size=4,
        expected_files_per_mds=256,
        lru_capacity=64,
        lru_filter_bits=512,
        seed=29,
    )
    cluster = GHBACluster(8, config, seed=29)
    records = generate_trace(HP_PROFILE, 300, 2_000, seed=29)
    placement = cluster.populate(sorted({r.path for r in records}))
    cluster.synchronize_replicas(force=True)
    plan = FaultPlan(
        seed=29, drop_rate=0.08, delay_rate=0.10, duplicate_rate=0.02
    )
    cluster.faults = PlanFaultInjector(plan, metrics=cluster.metrics)

    outcomes = []
    for record in records:
        if record.path in placement:
            result = cluster.query(record.path)
            outcomes.append(
                [
                    record.path,
                    result.home_id,
                    result.level.name,
                    round(result.latency_ms, 9),
                    result.messages,
                    result.false_forwards,
                    result.degraded,
                ]
            )

    # The gateway's batched verify path (VERIFY_BATCH → contains_many).
    rng = random.Random(29)
    batch_outcomes = []
    paths = sorted(placement)
    for server_id in sorted(cluster.servers):
        batch = [paths[rng.randrange(len(paths))] for _ in range(16)]
        batch.append(f"/golden/missing/{server_id}")
        result = cluster.verify_batch(server_id, batch)
        found = sorted(
            (path, record is not None, result.versions.get(path, 0))
            for path, record in result.results.items()
        )
        batch_outcomes.append(
            [server_id, found, round(result.latency_ms, 9), result.messages]
        )

    return {
        "outcomes_sha256": _digest(outcomes),
        "num_outcomes": len(outcomes),
        "verify_batches_sha256": _digest(batch_outcomes),
        "counters": _counter_snapshot(cluster.metrics),
    }


def scenario_gateway_cohort() -> dict:
    """The conftest cohort scenario under faults: gateway_* counters."""
    from tests.conftest import run_cohort_scenario

    plan = FaultPlan(
        seed=31, drop_rate=0.05, delay_rate=0.10, duplicate_rate=0.02
    )
    cohort, auditor = run_cohort_scenario(seed=31, size=3, plan=plan, ops=500)
    return {
        "counters": _counter_snapshot(cohort.cluster.metrics),
        "violations": auditor.stats.violations,
    }


def scenario_fig13() -> dict:
    """Per-level hit fractions of the hierarchy experiment, at seed 3."""
    with mock.patch.object(fig13, "SEED", 3):
        rows = fig13.run_one(num_servers=10, num_files=200, num_ops=1_500)
    return {"rows": _round_floats(rows)}


def scenario_fig14() -> dict:
    """Adaptivity experiment rows for the ghba scheme, in four windows, at
    seed 3."""
    with mock.patch.object(fig14, "WINDOWS", 4), mock.patch.object(fig14, "SEED", 3):
        rows = fig14.run_one(
            "ghba", num_nodes=6, group_size=3, num_files=200, num_ops=600
        )
    return {"rows": _round_floats(rows)}


def scenario_hba_baseline() -> dict:
    """The HBA columns of Figures 8-10 and 12, Table 5 and the scalability
    sweep, recorded before ISSUE 18 made ``HBACluster`` a ``GHBACluster``
    at ``max_group_size = 1``: the walk, the cost model and the memory
    model the two schemes now share must keep printing these."""
    fig08 = fig08_10.run_one(
        "hba",
        "HP",
        0.45,
        num_servers=12,
        group_size=4,
        num_files=2_000,
        num_ops=6_000,
    )
    with mock.patch.object(fig12, "PAPER_CONFIGS", (("HP", 20, 5),)):
        fig12_rows = fig12.run(num_updates=10, files_per_update=3).rows
    return {
        "fig08_hba": _round_floats(fig08),
        "fig12": _round_floats(fig12_rows),
        "table05": _round_floats(
            table05.run(server_counts=(20,), files_per_server=500).rows
        ),
        "scalability": _round_floats(scalability.run(server_counts=(20,)).rows),
    }


def scenario_serialization() -> dict:
    """Content hash of the Bloom wire form for a fixed item set."""
    digests = {}
    for num_bits, num_hashes, seed in ((512, 4, 0), (1024, 6, 7), (77, 3, -5)):
        bloom = BloomFilter(num_bits, num_hashes, seed)
        for i in range(64):
            bloom.add(f"/golden/wire/d{i % 7}/f{i}")
        key = f"{num_bits}/{num_hashes}/{seed}"
        digests[key] = hashlib.sha256(bloom.to_bytes()).hexdigest()
    return {"to_bytes_sha256": digests}


SCENARIOS = {
    "ghba_fault_replay": scenario_ghba_fault_replay,
    "gateway_cohort": scenario_gateway_cohort,
    "fig13": scenario_fig13,
    "fig14": scenario_fig14,
    "hba_baseline": scenario_hba_baseline,
    "serialization": scenario_serialization,
}


def _load_golden() -> dict:
    with GOLDEN_PATH.open("r", encoding="utf-8") as handle:
        return json.load(handle)


class TestGoldenCounters:
    def test_ghba_fault_replay_matches_golden(self):
        assert scenario_ghba_fault_replay() == _load_golden()["ghba_fault_replay"]

    def test_gateway_cohort_matches_golden(self):
        assert scenario_gateway_cohort() == _load_golden()["gateway_cohort"]

    def test_fig13_matches_golden(self):
        assert scenario_fig13() == _load_golden()["fig13"]

    def test_fig14_matches_golden(self):
        assert scenario_fig14() == _load_golden()["fig14"]

    def test_hba_baseline_matches_golden(self):
        assert scenario_hba_baseline() == _load_golden()["hba_baseline"]

    def test_serialization_matches_golden(self):
        assert scenario_serialization() == _load_golden()["serialization"]


def _regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    golden = {name: fn() for name, fn in sorted(SCENARIOS.items())}
    with GOLDEN_PATH.open("w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
