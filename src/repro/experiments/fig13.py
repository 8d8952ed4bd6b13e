"""Figure 13: percentage of queries served by each hierarchy level.

The paper replays trace queries against G-HBA for N = 10..100 MDSs and
reports, per N, the cumulative fraction of queries resolved at L1, L2, L3
and L4: more than 80 % at L1+L2, more than 90 % within the group (L3), and
an L4 share that grows with N as stale replicas accumulate.

We measure the same thing on a live cluster:

- a Zipf-skewed query stream with open/close pairing supplies the temporal
  locality the L1 LRU array exploits;
- background churn creates fresh files whose replicas stay stale until the
  XOR threshold triggers re-synchronization; a small fraction of queries
  targets those recent files.  A stale-file query resolves at L3 only when
  the origin's group happens to contain the home MDS (whose *local* filter
  is always fresh) — probability ~ M/N — so the L4 share grows with N,
  exactly the paper's staleness effect.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.optimal import TRACE_MODELS, optimal_group_size
from repro.experiments.common import (
    ExperimentResult,
    add_trace_out_argument,
    finish_trace,
    tracer_for,
)
from repro.metadata.attributes import FileMetadata
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.rng import make_rng
from repro.traces.profiles import PROFILES
from repro.traces.synthetic import SyntheticTraceGenerator

#: Operations between two bursts of background creates.
CHURN_INTERVAL = 400
#: Share of operations that look up a file created since the last sync.
CHURN_QUERY_FRACTION = 0.04


def run_one(
    num_servers: int,
    profile_name: str = "HP",
    num_files: int = 1_000,
    num_ops: int = 24_000,
    seed: int = 0,
    tracer: Tracer = NULL_TRACER,
) -> Dict[str, float]:
    """Measure per-level service fractions for one system size."""
    group_size = optimal_group_size(
        num_servers, TRACE_MODELS[profile_name], max_group_size=20
    )
    profile = PROFILES[profile_name]
    config = GHBAConfig(
        max_group_size=group_size,
        expected_files_per_mds=max(256, int(num_files / num_servers * 3)),
        lru_capacity=max(256, num_files),
        lru_filter_bits=1 << 13,
        update_threshold_bits=256,
        seed=seed,
    )
    cluster = GHBACluster(num_servers, config, seed=seed, tracer=tracer)
    generator = SyntheticTraceGenerator(profile, num_files, seed=seed)
    placement = cluster.populate(generator.paths)
    cluster.synchronize_replicas(force=True)
    rng = make_rng(seed ^ 0xF13)
    inode = 10_000_000
    churn_serial = 0
    recent_unsynced: List[str] = []
    for index, record in enumerate(generator.generate(num_ops)):
        if index % CHURN_INTERVAL == 0:
            # Background churn scaled with system size: every server keeps
            # creating files, so larger systems carry more stale state
            # between threshold-triggered synchronizations.
            batch = max(2, num_servers // 10)
            for i in range(batch):
                path = f"/churn/{churn_serial}/{i}"
                cluster.insert_file(
                    FileMetadata(path=path, inode=inode)
                )
                inode += 1
                recent_unsynced.append(path)
            churn_serial += 1
            report = cluster.synchronize_replicas(force=False)
            if report.servers_updated:
                recent_unsynced.clear()
        if recent_unsynced and rng.random() < CHURN_QUERY_FRACTION:
            cluster.query(rng.choice(recent_unsynced))
            continue
        if record.path in placement:
            cluster.query(record.path)
    fractions = cluster.level_fractions()
    return {
        "num_servers": num_servers,
        "group_size": group_size,
        "l1": fractions.get("L1", 0.0),
        "l2": fractions.get("L2", 0.0),
        "l3": fractions.get("L3", 0.0),
        "l4": fractions.get("L4", 0.0) + fractions.get("L4-negative", 0.0),
    }


def run(
    server_counts: Sequence[int] = (10, 30, 60, 100),
    profile_name: str = "HP",
    num_files: int = 1_000,
    num_ops: int = 24_000,
    seed: int = 0,
    tracer: Tracer = NULL_TRACER,
) -> ExperimentResult:
    """Regenerate Figure 13's per-level service percentages."""
    result = ExperimentResult(
        name="fig13",
        title="Figure 13: % of queries served per level",
        params={
            "server_counts": list(server_counts),
            "profile": profile_name,
            "num_files": num_files,
            "num_ops": num_ops,
        },
    )
    for num_servers in server_counts:
        row = run_one(
            num_servers,
            profile_name=profile_name,
            num_files=num_files,
            num_ops=num_ops,
            seed=seed,
            tracer=tracer,
        )
        row["l1_plus_l2"] = row["l1"] + row["l2"]
        row["within_group"] = row["l1"] + row["l2"] + row["l3"]
        result.rows.append(row)
    return result


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    add_trace_out_argument(parser)
    args = parser.parse_args(argv)
    tracer = tracer_for(args.trace_out)
    print(run(tracer=tracer).format())
    finish_trace(tracer, args.trace_out)


if __name__ == "__main__":
    main()
