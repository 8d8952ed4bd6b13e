"""Ablation: what the L1 LRU Bloom filter array buys.

DESIGN.md §4 calls out the LRU array as a key design decision: it absorbs
the temporal locality of metadata traffic so the deeper (and costlier)
levels see only the cold tail.  This ablation sweeps the LRU capacity from
"effectively disabled" upward and reports the per-level service mix and
mean query latency — disabling L1 should collapse its traffic onto L2/L3
and raise latency.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import GHBAConfig
from repro.experiments.common import ExperimentResult, replay_lookups


def run(
    lru_capacities: Sequence[int] = (1, 64, 512, 4096),
    num_servers: int = 20,
    group_size: int = 5,
    num_files: int = 1_200,
    num_ops: int = 8_000,
    profile_name: str = "HP",
    seed: int = 0,
) -> ExperimentResult:
    """Sweep LRU capacity; capacity 1 approximates 'no L1 level'."""
    result = ExperimentResult(
        name="ablation_lru",
        title="Ablation: L1 LRU array capacity vs. hit mix and latency",
        params={
            "lru_capacities": list(lru_capacities),
            "num_servers": num_servers,
            "num_ops": num_ops,
        },
    )
    for capacity in lru_capacities:
        config = GHBAConfig(
            max_group_size=group_size,
            expected_files_per_mds=max(256, int(num_files / num_servers * 2)),
            lru_capacity=capacity,
            lru_filter_bits=1 << 12,
            seed=seed,
        )
        cluster, fractions = replay_lookups(
            config, num_servers, num_files, num_ops, profile_name, seed
        )
        result.rows.append(
            {
                "lru_capacity": capacity,
                "l1": fractions.get("L1", 0.0),
                "l2": fractions.get("L2", 0.0),
                "l3": fractions.get("L3", 0.0),
                "l4": fractions.get("L4", 0.0)
                + fractions.get("L4-negative", 0.0),
                "mean_latency_ms": cluster.latency.mean,
                "queries": cluster.latency.count,
            }
        )
    return result


def main() -> None:
    print(run().format())


if __name__ == "__main__":
    main()
