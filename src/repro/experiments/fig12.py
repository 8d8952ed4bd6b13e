"""Figure 12: latency of updating stale Bloom filter replicas.

In HBA a replica update triggers a system-wide multicast to all N - 1
MDSs.  In G-HBA the update reaches *one MDS per group* (located via each
group's IDBFA), so both the message count and the multicast latency shrink
by roughly a factor of M.  The paper plots the average update latency over
a stream of update requests for HP/RES/INS at N = 30 (M = 5 or 6) and
N = 100 (M = 9).
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.baselines.hba import HBACluster
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.experiments.common import SEED, ExperimentResult
from repro.metadata.attributes import FileMetadata
from repro.sim.rng import make_rng

#: The paper's (trace, N, M) combinations.
PAPER_CONFIGS: Tuple[Tuple[str, int, int], ...] = (
    ("HP", 30, 6),
    ("HP", 100, 9),
    ("RES", 30, 5),
    ("RES", 100, 9),
    ("INS", 30, 6),
    ("INS", 100, 9),
)


def _config(group_size: int) -> GHBAConfig:
    return GHBAConfig(
        max_group_size=group_size,
        expected_files_per_mds=256,
        lru_capacity=32,
        lru_filter_bits=256,
        update_threshold_bits=0,
        seed=SEED,
    )


def run(num_updates: int = 60, files_per_update: int = 5) -> ExperimentResult:
    """Regenerate Figure 12: per-update latency and messages, both schemes.

    Each update request inserts a few files at a random MDS (dirtying its
    local filter) and then propagates the fresh replica: system-wide for
    HBA, one-MDS-per-group for G-HBA.
    """
    result = ExperimentResult(
        name="fig12",
        title="Figure 12: latency of updating stale replicas",
        params={
            "num_updates": num_updates,
            "files_per_update": files_per_update,
        },
    )
    for trace, num_servers, group_size in PAPER_CONFIGS:
        config = _config(group_size)
        ghba = GHBACluster(num_servers, config, seed=SEED)
        hba = HBACluster(num_servers, config, seed=SEED)
        rng = make_rng(SEED ^ hash((trace, num_servers)) & 0xFFFF)
        ghba_latency = 0.0
        ghba_messages = 0
        hba_latency = 0.0
        hba_messages = 0
        inode = 0
        for update_index in range(num_updates):
            server_id = rng.choice(sorted(ghba.servers))
            for file_index in range(files_per_update):
                meta = FileMetadata(
                    path=f"/{trace}/u{update_index}/f{file_index}", inode=inode
                )
                inode += 1
                ghba.insert_file(dataclasses.replace(meta), home_id=server_id)
                hba.insert_file(dataclasses.replace(meta), home_id=server_id)
            ghba_report = ghba.update_server_replicas(server_id)
            ghba_latency += ghba_report.latency_ms
            ghba_messages += ghba_report.messages
            hba_report = hba.update_server_replicas(server_id)
            hba_latency += hba_report.latency_ms
            hba_messages += hba_report.messages
        result.rows.append(
            {
                "trace": trace,
                "num_servers": num_servers,
                "group_size": group_size,
                "ghba_avg_latency_ms": ghba_latency / num_updates,
                "hba_avg_latency_ms": hba_latency / num_updates,
                "ghba_avg_messages": ghba_messages / num_updates,
                "hba_avg_messages": hba_messages / num_updates,
            }
        )
    return result


def main() -> None:
    print(run().format())


if __name__ == "__main__":
    main()
