#!/usr/bin/env python3
"""Trace replay: compare G-HBA against HBA under an intensified workload.

Reproduces the paper's core evaluation loop end to end:

1. generate a synthetic trace shaped like the HP workload (Table 4);
2. intensify it with the paper's TIF scale-up (disjoint subtraces replayed
   concurrently, Section 4);
3. replay the metadata operations against both schemes under a constrained
   per-MDS memory budget;
4. report average latency and per-level hit mix — the Figure 8 mechanism.

Run:  python examples/trace_replay.py [--ops 20000] [--servers 30]
"""

import argparse
import dataclasses

from repro.baselines.hba import HBACluster
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.metadata.attributes import FileMetadata
from repro.traces.profiles import HP_PROFILE
from repro.traces.records import MetadataOp
from repro.traces.scaling import intensify
from repro.traces.synthetic import generate_trace
from repro.traces.workloads import compute_stats


def replay(cluster, records, sync_interval=400):
    """Replay metadata ops: first touch inserts, later touches query.

    Replicas synchronize periodically through the XOR-threshold rule, as a
    live deployment would, so lookups are served by fresh-enough filters.
    """
    inserted = {}
    next_inode = 0
    for index, record in enumerate(records):
        if record.op is MetadataOp.RENAME:
            continue
        if index % sync_interval == 0:
            cluster.synchronize_replicas(force=False)
        if record.path not in inserted:
            inserted[record.path] = cluster.insert_file(
                FileMetadata(path=record.path, inode=next_inode)
            )
            next_inode += 1
            continue
        cluster.query(record.path)
    cluster.synchronize_replicas(force=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ops", type=int, default=20_000)
    parser.add_argument("--servers", type=int, default=30)
    parser.add_argument("--files", type=int, default=4_000)
    parser.add_argument("--tif", type=int, default=4)
    args = parser.parse_args()

    base = generate_trace(
        HP_PROFILE, args.files, args.ops // args.tif, seed=7
    )
    scaled = intensify(base, args.tif)
    stats = compute_stats(scaled)
    print(
        f"intensified HP-shaped trace: {stats.total_ops} ops, "
        f"{stats.num_active_files} files, {stats.num_users} users, "
        f"TIF={args.tif}"
    )

    config = GHBAConfig(
        max_group_size=6,
        expected_files_per_mds=max(256, stats.num_active_files // args.servers * 2),
        lru_capacity=1_000,
    )
    # Constrain memory to ~60% of HBA's working set, the regime where
    # Figure 8 shows HBA degrading.
    filter_bytes = config.filter_bytes
    working_set = (
        args.servers * filter_bytes
        + stats.num_active_files // args.servers * 280
        + 64 * 1024
    )
    config = dataclasses.replace(
        config, memory_budget_bytes=int(working_set * 0.6)
    )

    for name, cluster in (
        ("G-HBA", GHBACluster(args.servers, config, seed=7)),
        ("HBA", HBACluster(args.servers, config, seed=7)),
    ):
        replay(cluster, scaled)
        print(f"\n{name}:")
        print(f"  queries:        {cluster.latency.count}")
        print(f"  mean latency:   {cluster.latency.mean:.3f} ms")
        print(f"  p95 latency:    {cluster.latency.percentile(95):.3f} ms")
        print(f"  messages:       {cluster.total_messages}")
        print(f"  false forwards: {cluster.total_false_forwards}")
        for level, fraction in sorted(cluster.level_fractions().items()):
            print(f"  served at {level}: {fraction * 100:.1f}%")


if __name__ == "__main__":
    main()
