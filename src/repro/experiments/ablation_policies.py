"""Ablation: L1 replacement policies (paper Section 7 future work).

"Another [direction] is to enhance the replacement efficiency of our
currently used LRU."  This ablation replays the same skewed metadata trace
against clusters whose L1 arrays run LRU (the paper's choice), FIFO and
LFU, and reports the L1 hit share and mean latency per policy.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.core.config import GHBAConfig
from repro.experiments.common import SEED, ExperimentResult, replay_lookups

NUM_SERVERS = 20
GROUP_SIZE = 5
NUM_FILES = 1_200


def run(
    policies: Sequence[str] = ("fifo", "lru", "lfu"),
    num_ops: int = 8_000,
    lru_capacity: int = 32,
) -> ExperimentResult:
    """Replay one trace per policy; everything else held fixed.

    The capacity is deliberately smaller than the active set so the
    policies actually have to choose victims.
    """
    result = ExperimentResult(
        name="ablation_policies",
        title="Ablation: L1 replacement policy vs. hit mix and latency",
        params={
            "policies": list(policies),
            "num_servers": NUM_SERVERS,
            "num_ops": num_ops,
            "lru_capacity": lru_capacity,
        },
    )
    base = GHBAConfig(
        max_group_size=GROUP_SIZE,
        expected_files_per_mds=max(256, int(NUM_FILES / NUM_SERVERS * 2)),
        lru_capacity=lru_capacity,
        lru_filter_bits=1 << 12,
        seed=SEED,
    )
    for policy in policies:
        config = dataclasses.replace(base, lru_policy=policy)
        cluster, fractions = replay_lookups(config, NUM_SERVERS, NUM_FILES, num_ops)
        result.rows.append(
            {
                "policy": policy,
                "l1": fractions.get("L1", 0.0),
                "l2": fractions.get("L2", 0.0),
                "l3": fractions.get("L3", 0.0),
                "mean_latency_ms": cluster.latency.mean,
                "queries": cluster.latency.count,
            }
        )
    return result


def main() -> None:
    print(run().format())


if __name__ == "__main__":
    main()
