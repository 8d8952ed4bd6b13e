"""Ablation: the XOR update-threshold tradeoff (Section 3.4).

A home MDS re-ships its Bloom filter replica only when the XOR
bit-difference from the last published version exceeds a threshold.  A
threshold of zero keeps replicas perfectly fresh at maximal message cost; a
large threshold saves update traffic but lets queries for recently created
files escape to L4 (stale replicas lack their bits).

This ablation sweeps the threshold under steady file churn and reports
update messages versus the fraction of queries for fresh files that had to
fall through to the global multicast.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.query import QueryLevel
from repro.experiments.common import SEED, ExperimentResult
from repro.metadata.attributes import FileMetadata
from repro.sim.rng import make_rng

import dataclasses

FILES_PER_ROUND = 6
QUERIES_PER_ROUND = 10


def run(
    thresholds: Sequence[int] = (0, 64, 256, 1024),
    num_servers: int = 20,
    group_size: int = 5,
    churn_rounds: int = 40,
) -> ExperimentResult:
    """Sweep the update threshold under create-then-query churn."""
    result = ExperimentResult(
        name="ablation_updates",
        title="Ablation: XOR update threshold vs. messages and staleness",
        params={
            "thresholds": list(thresholds),
            "churn_rounds": churn_rounds,
            "files_per_round": FILES_PER_ROUND,
        },
    )
    base = GHBAConfig(
        max_group_size=group_size,
        expected_files_per_mds=512,
        lru_capacity=64,
        lru_filter_bits=512,
        seed=SEED,
    )
    for threshold in thresholds:
        config = dataclasses.replace(base, update_threshold_bits=threshold)
        cluster = GHBACluster(num_servers, config, seed=SEED)
        rng = make_rng(SEED ^ threshold)
        update_messages = 0
        stale_escapes = 0
        fresh_queries = 0
        inode = 0
        for round_index in range(churn_rounds):
            created: List[str] = []
            for i in range(FILES_PER_ROUND):
                path = f"/ablation/{threshold}/{round_index}/{i}"
                cluster.insert_file(FileMetadata(path=path, inode=inode))
                inode += 1
                created.append(path)
            report = cluster.synchronize_replicas(force=False)
            update_messages += report.messages
            for _ in range(QUERIES_PER_ROUND):
                path = rng.choice(created)
                outcome = cluster.query(path)
                fresh_queries += 1
                if outcome.level in (QueryLevel.L4, QueryLevel.NEGATIVE):
                    stale_escapes += 1
        result.rows.append(
            {
                "threshold_bits": threshold,
                "update_messages": update_messages,
                "stale_escape_rate": (
                    stale_escapes / fresh_queries if fresh_queries else 0.0
                ),
                "fresh_queries": fresh_queries,
                "mean_latency_ms": cluster.latency.mean,
            }
        )
    return result


def main() -> None:
    print(run().format())


if __name__ == "__main__":
    main()
