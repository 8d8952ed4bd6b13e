#!/usr/bin/env python3
"""Prototype demo: concurrent lookups against a live node fleet.

Spins up the message-passing prototype (every MDS is a thread with a
mailbox), populates it, then fires lookups from several concurrent client
threads — the in-process equivalent of the paper's 60-node Linux deployment
(Section 5).  Finishes by adding nodes live and reporting the wire-level
message counts (the Figure 15 measurement).

Run:  python examples/prototype_demo.py
"""

import threading
from collections import Counter

from repro.core.config import GHBAConfig
from repro.prototype.cluster import PrototypeCluster


def client(proto, paths, results, lock, client_index):
    """One client thread: resolve its slice of paths."""
    for i, path in enumerate(paths):
        outcome = proto.lookup(path, vtime=i * 0.002)
        with lock:
            results.append((client_index, path, outcome))


def main() -> None:
    config = GHBAConfig(
        max_group_size=5,
        expected_files_per_mds=500,
        lru_capacity=200,
        lru_filter_bits=1 << 10,
    )
    with PrototypeCluster(15, config, scheme="ghba", seed=11) as proto:
        paths = [f"/proto/dir{i % 9}/file{i}" for i in range(1_500)]
        placement = proto.populate(paths)
        print(
            f"prototype up: {proto.num_nodes} node threads, "
            f"{len(proto.groups)} groups, {len(placement)} files"
        )

        # Four concurrent clients, each resolving a slice of the namespace.
        results = []
        lock = threading.Lock()
        slices = [paths[i::4][:150] for i in range(4)]
        threads = [
            threading.Thread(target=client, args=(proto, s, results, lock, i))
            for i, s in enumerate(slices)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        wrong = [
            (path, outcome.home_id, placement[path])
            for _, path, outcome in results
            if outcome.home_id != placement[path]
        ]
        levels = Counter(outcome.level.name for _, _, outcome in results)
        mean_latency = sum(
            o.latency_ms for _, _, o in results
        ) / len(results)
        print(f"resolved {len(results)} lookups from 4 concurrent clients")
        print(f"  misroutes:      {len(wrong)} (must be 0)")
        print(f"  level mix:      {dict(levels)}")
        print(f"  mean latency:   {mean_latency:.3f} ms (virtual)")
        print(f"  wire messages:  {proto.transport.messages_sent}")

        print("\nadding 3 nodes live:")
        for _ in range(3):
            report = proto.add_node()
            print(
                f"  node {report['node_id']}: {report['messages']} messages "
                f"({len(proto.groups)} groups)"
            )
        proto.check_directory()
        outcome = proto.lookup(paths[0])
        print(
            f"post-reconfiguration lookup: {paths[0]} -> node "
            f"{outcome.home_id} at {outcome.level.name}"
        )


if __name__ == "__main__":
    main()
