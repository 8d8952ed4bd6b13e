"""Ablation: Bloom filter bit/file ratio (paper Section 2.3).

"By storing only a small subset of all replicas and thus achieving
significant memory space savings, the group-based approach ... can afford
to increase the number of bits per file (m/n) so as to significantly
decrease the false rate of its Bloom filters."

This ablation sweeps the bit ratio and measures, on a live cluster driven
by a query stream over a *nonexistent-path-heavy* mix (where false
positives actually bite): memory per MDS, measured false forwards, and the
analytic Equation 1 rate for comparison.  The punchline is the paper's:
at 16 bits/file G-HBA spends *less* absolute memory than HBA at 8 while
driving false routing to near zero.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.bloom.analysis import segment_array_false_positive_rate
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.experiments.common import SEED, ExperimentResult
from repro.sim.rng import make_rng

NUM_SERVERS = 16
GROUP_SIZE = 4
NUM_FILES = 2_000
#: The share of queries for nonexistent paths.
NEGATIVE_FRACTION = 0.3


def run(
    bit_ratios: Sequence[float] = (4.0, 8.0, 16.0, 24.0), num_queries: int = 4_000
) -> ExperimentResult:
    """Sweep m/n; measure memory, false forwards and the Eq. 1 prediction."""
    result = ExperimentResult(
        name="ablation_bits",
        title="Ablation: bit/file ratio vs. memory and false routing",
        params={
            "bit_ratios": list(bit_ratios),
            "num_servers": NUM_SERVERS,
            "num_files": NUM_FILES,
            "negative_fraction": NEGATIVE_FRACTION,
        },
    )
    base = GHBAConfig(
        max_group_size=GROUP_SIZE,
        expected_files_per_mds=max(64, NUM_FILES // NUM_SERVERS * 2),
        lru_capacity=32,
        lru_filter_bits=256,
        seed=SEED,
    )
    paths = [f"/bits/d{i % 7}/f{i}" for i in range(NUM_FILES)]
    for ratio in bit_ratios:
        config = dataclasses.replace(base, bits_per_file=ratio)
        cluster = GHBACluster(NUM_SERVERS, config, seed=SEED)
        placement = cluster.populate(paths)
        cluster.synchronize_replicas(force=True)
        rng = make_rng(SEED ^ int(ratio * 10))
        for index in range(num_queries):
            if rng.random() < NEGATIVE_FRACTION:
                # Nonexistent paths: the stream where sparse filters save
                # multicasts and dense ones trigger false forwards.
                cluster.query(f"/bits/ghost/{index}")
            else:
                cluster.query(paths[rng.randrange(NUM_FILES)])
        theta = (NUM_SERVERS - GROUP_SIZE) / GROUP_SIZE
        result.rows.append(
            {
                "bits_per_file": ratio,
                "filter_bytes": config.filter_bytes,
                "bloom_bytes_per_mds": int(
                    sum(cluster.memory_bytes_per_server().values())
                    / NUM_SERVERS
                ),
                "false_forwards": cluster.total_false_forwards,
                "false_forward_rate": (
                    cluster.total_false_forwards / num_queries
                ),
                "eq1_predicted_rate": segment_array_false_positive_rate(
                    int(theta), ratio
                ),
                "mean_latency_ms": cluster.latency.mean,
            }
        )
    return result


def main() -> None:
    print(run().format(float_digits=5))


if __name__ == "__main__":
    main()
