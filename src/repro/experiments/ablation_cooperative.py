"""Ablation: cooperative L1 caching (paper Section 7 future work).

"[consider] the distributed and cooperative caching [49-51]."  With
cooperative caching on, a resolved lookup's ``file -> home`` mapping is
pushed to a few group peers, so a hot file's mapping warms every member's
L1 array after far fewer queries — at the cost of one hint message per
peer per resolution.  The tradeoff is measured here: L1 hit share and mean
latency versus total messages, with and without cooperation.
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
    fanouts: Sequence[int] = (0, 1, 2, 4), num_ops: int = 8_000
) -> ExperimentResult:
    """Sweep the cooperative fanout (0 = the paper's plain scheme)."""
    result = ExperimentResult(
        name="ablation_cooperative",
        title="Ablation: cooperative L1 caching vs. hit mix and messages",
        params={
            "fanouts": list(fanouts),
            "num_servers": NUM_SERVERS,
            "num_ops": num_ops,
        },
    )
    base = GHBAConfig(
        max_group_size=GROUP_SIZE,
        expected_files_per_mds=max(256, int(NUM_FILES / NUM_SERVERS * 2)),
        lru_capacity=max(128, NUM_FILES // 4),
        lru_filter_bits=1 << 12,
        seed=SEED,
    )
    for fanout in fanouts:
        config = dataclasses.replace(base, cooperative_fanout=fanout)
        cluster, fractions = replay_lookups(config, NUM_SERVERS, NUM_FILES, num_ops)
        result.rows.append(
            {
                "fanout": fanout,
                "l1": fractions.get("L1", 0.0),
                "l3": fractions.get("L3", 0.0),
                "mean_latency_ms": cluster.latency.mean,
                "total_messages": cluster.total_messages,
                "queries": cluster.latency.count,
            }
        )
    return result


def main() -> None:
    print(run().format())


if __name__ == "__main__":
    main()
