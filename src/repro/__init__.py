"""repro — a reproduction of G-HBA (ICDCS 2008).

Group-based Hierarchical Bloom filter Arrays for scalable and adaptive
metadata management in ultra large-scale file systems, after:

    Yu Hua, Yifeng Zhu, Hong Jiang, Dan Feng, Lei Tian.
    "Scalable and Adaptive Metadata Management in Ultra Large-scale File
    Systems."  ICDCS 2008 (UNL TR-UNL-CSE-2007-0025).

Quickstart::

    from repro import GHBACluster, GHBAConfig

    cluster = GHBACluster(num_servers=30, config=GHBAConfig(max_group_size=6))
    cluster.populate(f"/data/file{i}" for i in range(10_000))
    cluster.synchronize_replicas(force=True)
    result = cluster.query("/data/file42")
    print(result.home_id, result.level, result.latency_ms)

Packages
--------
- ``repro.bloom`` — Bloom filter substrate (filters, counting filters,
  algebra, arrays).
- ``repro.metadata`` — file metadata, namespace tree, record stores.
- ``repro.sim`` — the network latency model and seeded samplers.
- ``repro.traces`` — synthetic HP/INS/RES-shaped workloads and TIF scaling.
- ``repro.core`` — the G-HBA scheme itself.
- ``repro.baselines`` — HBA (the cluster at M = 1), the BFA memory
  formula, hash placement, static subtrees.
- ``repro.prototype`` — threaded message-passing prototype.
- ``repro.experiments`` — one module per paper table/figure.
"""

from repro.core import GHBAConfig, GHBACluster, QueryLevel, QueryResult

__version__ = "1.0.0"

__all__ = [
    "GHBAConfig",
    "GHBACluster",
    "QueryLevel",
    "QueryResult",
    "__version__",
]
