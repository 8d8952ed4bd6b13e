"""HBA: Hierarchical Bloom filter Arrays (Zhu, Jiang, Wang — Cluster 2004).

The state-of-the-art Bloom-filter scheme the paper compares against: every
MDS stores a *complete* array of Bloom filter replicas — one per MDS in the
system — fronted by an LRU array.  That is G-HBA with every MDS a group of
its own, and each formula the paper gives for G-HBA evaluates at M = 1 to
HBA's cost, so the simulator runs one cluster at two values of one
parameter (DESIGN.md section 2, "HBA is G-HBA at M = 1"):

- **queries** — L1 (the LRU array), L2 (the full replica array: a unique
  hit names the home MDS), no L3 (a group of one has no peers), L4 (the
  global multicast);
- **memory** — theta = N - 1 replicas per MDS instead of ``(N - M') / M'``;
  at scale the array outgrows main memory and probes pay disk latency
  (Figures 8-10, Table 5);
- **updates** — one message per group is N - 1 messages (Figure 12);
- **reconfiguration** — a joining MDS fetches one mirror, which is all N
  replicas, and ships its own to everyone (Figure 11).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig


class HBACluster(GHBACluster):
    """An HBA deployment of ``num_servers`` MDSs: a :class:`GHBACluster`
    whose ``config.max_group_size`` is 1, whatever ``config`` says.
    Remaining keywords (``tracer``, ``metrics``, ``faults``) pass through.
    """

    def __init__(
        self,
        num_servers: int,
        config: Optional[GHBAConfig] = None,
        seed: int = 0,
        **observers,
    ) -> None:
        config = dataclasses.replace(config or GHBAConfig(), max_group_size=1)
        super().__init__(num_servers, config, seed=seed, **observers)

    def __repr__(self) -> str:
        return f"HBACluster(servers={self.num_servers})"
