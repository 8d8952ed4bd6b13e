#!/usr/bin/env python3
"""Operational tour: the features an operator of a G-HBA deployment uses.

Beyond the paper's query path, a production metadata service needs
day-2 machinery.  This example exercises:

1. health summaries (`repro.core.metrics`);
2. heartbeat failure detection on a virtual clock (§4.5);
3. recovery of a crashed MDS from its on-disk metadata (Table 1);
4. whole-cluster checkpoint / restore;
5. replica-update byte accounting with compressed transfer.

Run:  python examples/operational_tour.py
"""

import tempfile
from pathlib import Path

from repro.core import checkpoint
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.failure import HeartbeatMonitor
from repro.core.metrics import summarize
from repro.metadata.attributes import FileMetadata
from repro.obs.report import render_summary


def main() -> None:
    config = GHBAConfig(
        max_group_size=4,
        expected_files_per_mds=600,
        lru_capacity=200,
        lru_filter_bits=1 << 10,
    )
    cluster = GHBACluster(12, config, seed=8)
    placement = cluster.populate(f"/ops/team{i % 6}/f{i}" for i in range(2_000))
    report = cluster.synchronize_replicas(force=True)
    print(
        f"initial sync: {report.servers_updated} filters published, "
        f"{report.messages} messages, "
        f"{report.bytes_compressed}/{report.bytes_raw} bytes "
        f"(compressed/raw = {report.compression_ratio:.2f})"
    )

    # Some traffic, then a health summary.
    for path in list(placement)[:400]:
        cluster.query(path)
    print("\n-- health summary --")
    print(render_summary(summarize(cluster)))

    # Heartbeat-detected crash, degraded service, then recovery.
    print("\n-- crash, detect, recover --")
    monitor = HeartbeatMonitor(cluster)
    victim = cluster.server_ids()[2]
    victim_file = next(p for p, h in placement.items() if h == victim)
    monitor.crash(victim)
    monitor.advance(10.0)
    event = monitor.failures[0]
    print(
        f"MDS{victim} crashed; detected by MDS{event.detected_by} at "
        f"t={event.detected_at:.1f}s"
    )
    result = cluster.query(victim_file)
    print(f"lookup of its file: found={result.found} (degraded, no misroute)")
    recovery = cluster.recover_server(victim)
    result = cluster.query(victim_file)
    print(
        f"after recovery as MDS{recovery.server_id}: found={result.found} "
        f"at MDS{result.home_id}"
    )
    cluster.check_invariants()

    # Checkpoint the whole deployment and restore it elsewhere.
    print("\n-- checkpoint / restore --")
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "cluster.json"
        size = checkpoint.save(cluster, ckpt)
        print(f"checkpoint written: {size / 1024:.1f} KiB")
        restored = checkpoint.load(ckpt)
        restored.check_invariants()
        probe = next(iter(placement))
        print(
            f"restored cluster resolves {probe} -> "
            f"MDS{restored.query(probe).home_id} "
            f"(original: MDS{cluster.home_of(probe)})"
        )


if __name__ == "__main__":
    main()
