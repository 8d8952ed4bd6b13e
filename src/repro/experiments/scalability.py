"""Scalability sweep: per-MDS cost as the system grows (the title claim).

The paper's case for G-HBA in *ultra large-scale* systems is asymptotic:
HBA's per-MDS state and probe work grow linearly with N, while G-HBA's
grow as ``(N - M*) / M*`` with M* itself growing ~ sqrt(N) — i.e. per-MDS
cost ~ sqrt(N) instead of N.  This sweep builds both schemes at increasing
N (with the per-N optimal M from the Figure 7 model) and measures:

- Bloom-filter bytes per MDS,
- filters probed per local lookup (the L2 array width),
- replicas shipped per filter update,
- replicas migrated when one MDS joins.
"""

from __future__ import annotations

import statistics
from typing import Sequence

from repro.baselines.hba import HBACluster
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.optimal import TRACE_MODELS, optimal_group_size
from repro.experiments.common import ExperimentResult


def _tiny_config(group_size: int, seed: int) -> GHBAConfig:
    return GHBAConfig(
        max_group_size=group_size,
        expected_files_per_mds=64,
        lru_capacity=16,
        lru_filter_bits=64,
        seed=seed,
    )


def run(
    server_counts: Sequence[int] = (20, 40, 80, 160),
    trace: str = "HP",
    seed: int = 0,
) -> ExperimentResult:
    """Measure per-MDS costs for both schemes across system sizes."""
    result = ExperimentResult(
        name="scalability",
        title="Scalability sweep: per-MDS cost vs. system size",
        params={"server_counts": list(server_counts), "trace": trace},
    )
    for num_servers in server_counts:
        group_size = optimal_group_size(
            num_servers, TRACE_MODELS[trace], max_group_size=25
        )
        config = _tiny_config(group_size, seed)
        ghba = GHBACluster(num_servers, config, seed=seed)
        hba = HBACluster(num_servers, config, seed=seed)
        ghba_theta = statistics.mean(
            server.theta for server in ghba.servers.values()
        )
        ghba_bytes = statistics.mean(ghba.memory_bytes_per_server().values())
        hba_bytes = statistics.mean(hba.memory_bytes_per_server().values())
        ghba_update = ghba.update_server_replicas(0)
        hba_update = hba.update_server_replicas(0)
        ghba_join = ghba.add_server()
        hba_join = hba.add_server()
        result.rows.append(
            {
                "num_servers": num_servers,
                "group_size": group_size,
                "ghba_probes_per_lookup": ghba_theta + 1,
                "hba_probes_per_lookup": float(num_servers),
                "ghba_bytes_per_mds": int(ghba_bytes),
                "hba_bytes_per_mds": int(hba_bytes),
                "ghba_update_messages": ghba_update.messages,
                "hba_update_messages": hba_update.messages,
                "ghba_join_replicas": ghba.servers[
                    ghba_join.server_id
                ].theta,
                "hba_join_replicas": hba_join.migrated_replicas,
            }
        )
    return result


def main() -> None:
    print(run().format())


if __name__ == "__main__":
    main()
