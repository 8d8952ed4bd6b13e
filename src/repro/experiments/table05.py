"""Table 5: relative memory overhead per MDS, normalized to BFA8.

The paper compares, per MDS and as a function of N:

- **BFA8** — one filter per MDS at 8 bits/file: the 1.0 baseline;
- **BFA16** — the same at 16 bits/file: exactly 2.0;
- **HBA** — BFA8 plus the (tiny) LRU array: 1.0002 .. 1.0010;
- **G-HBA** — only ``theta + 1`` of the N filters per MDS (at the optimal
  M for each N) plus the LRU array: 0.2002 at N = 20 falling to 0.1121 at
  N = 100.

We *measure* the HBA and G-HBA ratios on live clusters — the same cluster
at ``max_group_size`` 1 and at the optimal M — summing the actual byte
sizes of every Bloom structure per MDS.  The two BFA columns are their
definition, N filters at that bit ratio and nothing else
(:func:`~repro.baselines.bfa.bfa_memory_bytes_per_server`): exactly the
replica array plus local filter a live HBA cluster holds at that ratio.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Sequence

from repro.baselines.bfa import bfa_memory_bytes_per_server
from repro.baselines.hba import HBACluster
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.optimal import TRACE_MODELS, optimal_group_size
from repro.experiments.common import SEED, ExperimentResult

#: The paper's Table 5 values for reference columns.
PAPER_GHBA = {20: 0.2002, 40: 0.1670, 60: 0.1434, 80: 0.1258, 100: 0.1121}


def _mean_memory(cluster: GHBACluster) -> float:
    """Mean Bloom-structure bytes per MDS, after warming the LRU arrays.

    LRU filters allocate lazily; a short query burst from every origin puts
    each cluster in its steady state so the LRU footprint is measured, not
    zero (the paper's HBA column is 1.0002..1.0010, i.e. BFA8 + a warm LRU).
    """
    paths = [f"/warm/f{i}" for i in range(64)]
    cluster.populate(paths)
    for origin_id in cluster.server_ids():
        for path in paths[:8]:
            cluster.query(path, origin_id=origin_id)
    per_server = cluster.memory_bytes_per_server()
    return statistics.mean(per_server.values())


def run(
    server_counts: Sequence[int] = (20, 40, 60, 80, 100),
    files_per_server: int = 2_000,
) -> ExperimentResult:
    """Regenerate Table 5 at laptop scale.

    All schemes share ``files_per_server`` (filter sizing) and an LRU array
    sized at ~1 % of a filter, mirroring the paper's negligible-LRU regime.
    """
    result = ExperimentResult(
        name="table05",
        title="Table 5: relative memory overhead per MDS (normalized to BFA8)",
        params={
            "server_counts": list(server_counts),
            "files_per_server": files_per_server,
        },
    )
    base = GHBAConfig(
        bits_per_file=8.0,
        expected_files_per_mds=files_per_server,
        lru_capacity=max(16, files_per_server // 100),
        lru_filter_bits=max(64, int(files_per_server * 8 // 100)),
        lru_num_hashes=4,
        seed=SEED,
    )
    for num_servers in server_counts:
        group_size = optimal_group_size(
            num_servers, TRACE_MODELS["HP"], max_group_size=20
        )
        config = dataclasses.replace(base, max_group_size=group_size)
        bfa8 = bfa_memory_bytes_per_server(num_servers, files_per_server, 8.0)
        bfa16 = bfa_memory_bytes_per_server(num_servers, files_per_server, 16.0)
        hba = _mean_memory(HBACluster(num_servers, config, seed=SEED))
        ghba = _mean_memory(GHBACluster(num_servers, config, seed=SEED))
        result.rows.append(
            {
                "num_servers": num_servers,
                "group_size": group_size,
                "bfa8": 1.0,
                "bfa16": bfa16 / bfa8,
                "hba": hba / bfa8,
                "ghba": ghba / bfa8,
                "paper_ghba": PAPER_GHBA.get(num_servers),
            }
        )
    return result


def main() -> None:
    print(run().format(float_digits=4))


if __name__ == "__main__":
    main()
