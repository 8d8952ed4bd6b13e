"""Figure 11: replicas migrated when a new MDS joins, vs. system size.

Three schemes:

- **HBA** — the newcomer must receive every existing replica: N migrations.
- **Hash placement** — modular hashing reassigns almost every replica in
  the group: bounded by ``N - M'``, growing with N (measured on
  :class:`~repro.baselines.hash_placement.HashPlacementGroup`).
- **G-HBA** — light-weight migration: the newcomer takes over
  ``(N - M') / (M' + 1)`` replicas from its group (measured on a live
  :class:`~repro.core.cluster.GHBACluster` join).
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.hash_placement import hash_join_migrations
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.optimal import TRACE_MODELS, optimal_group_size
from repro.experiments.common import SEED, ExperimentResult

#: The workloads whose optimal M sets each series' group size.
TRACES = ("INS", "HP", "RES")


def _tiny_config(group_size: int) -> GHBAConfig:
    """Minimal filters: this experiment counts migrations, not bits."""
    return GHBAConfig(
        max_group_size=group_size,
        expected_files_per_mds=64,
        lru_capacity=16,
        lru_filter_bits=64,
        seed=SEED,
    )


def ghba_join_migrations(num_servers: int, group_size: int) -> int:
    """Replicas migrated *to the newly inserted MDS* on a live join.

    This is exactly the quantity the paper plots: "G-HBA only needs to
    migrate (N - M')/(M' + 1) replicas to the newly inserted MDS"
    (Section 4.3).  Measured as the newcomer's replica count (theta) after
    the join completes — splits, when triggered, redistribute replicas
    among existing members but ship no extra replicas to the newcomer.
    """
    cluster = GHBACluster(num_servers - 1, _tiny_config(group_size), seed=SEED)
    report = cluster.add_server()
    cluster.check_invariants()
    return cluster.servers[report.server_id].theta


def run(
    server_counts: Sequence[int] = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
) -> ExperimentResult:
    """Regenerate Figure 11's series.

    The group size per N comes from the per-trace optimal M (Figure 7), as
    in the paper — which is why the hash-placement and G-HBA lines differ
    slightly between traces.
    """
    result = ExperimentResult(
        name="fig11",
        title="Figure 11: replicas migrated on MDS join",
        params={"server_counts": list(server_counts), "traces": list(TRACES)},
    )
    for num_servers in server_counts:
        row = {"num_servers": num_servers, "hba": num_servers}
        for trace in TRACES:
            group_size = optimal_group_size(
                num_servers, TRACE_MODELS[trace], max_group_size=20
            )
            name = trace.lower()
            row[f"hash_{name}"] = hash_join_migrations(num_servers, group_size)
            row[f"ghba_{name}"] = ghba_join_migrations(num_servers, group_size)
        result.rows.append(row)
    return result


def main() -> None:
    print(run().format())


if __name__ == "__main__":
    main()
