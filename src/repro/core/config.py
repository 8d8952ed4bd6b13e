"""Configuration for G-HBA clusters.

Every tunable of the scheme lives here so experiments can sweep them:
Bloom filter geometry (the bit/file ratio of Table 5), maximum group size M
(Section 3.3), LRU capacity (L1), the XOR update threshold (Section 3.4)
and the per-MDS memory budget driving Figures 8-10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.bloom.analysis import optimal_num_hashes
from repro.sim.network import NetworkModel


@dataclass(frozen=True)
class GHBAConfig:
    """All tunables of a G-HBA deployment.

    Attributes
    ----------
    max_group_size:
        M — the maximum number of MDSs per group (Section 3.3).
    bits_per_file:
        The Bloom filter bit ratio m/n.  G-HBA's space savings let it afford
        a higher ratio than flat schemes (paper Section 2.3); 16 is our
        default, 8 matches the BFA8 baseline of Table 5.
    expected_files_per_mds:
        Sizing hint for each MDS's local filter.
    lru_capacity:
        Entries retained by the L1 LRU Bloom filter array.
    lru_policy:
        L1 replacement policy: "lru" (the paper's choice), "fifo" or "lfu"
        (the Section 7 replacement-efficiency extension).
    cooperative_fanout:
        Section 7's cooperative-caching extension: when a query resolves,
        the origin pushes the learned ``file -> home`` mapping to this many
        group peers, warming their L1 arrays too (one message each).  0,
        the default, is off — the paper's scheme.
    lru_filter_bits / lru_num_hashes:
        Geometry of the per-home counting filters inside the L1 array.
    update_threshold_bits:
        XOR-threshold for replica refresh: a replica is re-shipped only when
        its bit difference from the live filter exceeds this (Section 3.4).
    memory_budget_bytes:
        Per-MDS main memory for Bloom structures + metadata; None = unbounded.
        Past it every structure keeps ``budget / footprint`` of itself in
        memory (:attr:`MetadataServer.resident_fraction
        <repro.core.server.MetadataServer.resident_fraction>`).
    seed:
        Hash family seed shared by every MDS so filters stay comparable.
    network:
        Latency model used by the simulator.
    heartbeat_interval_s / heartbeat_timeout_s:
        Failure detection parameters (Section 4.5).
    """

    max_group_size: int = 6
    bits_per_file: float = 16.0
    expected_files_per_mds: int = 10_000
    lru_capacity: int = 2_000
    lru_filter_bits: int = 1 << 14
    lru_num_hashes: int = 6
    lru_policy: str = "lru"
    cooperative_fanout: int = 0
    update_threshold_bits: int = 64
    memory_budget_bytes: Optional[int] = None
    seed: int = 0
    network: NetworkModel = field(default_factory=NetworkModel)
    heartbeat_interval_s: float = 1.0
    heartbeat_timeout_s: float = 3.0

    def __post_init__(self) -> None:
        if self.max_group_size < 1:
            raise ValueError(
                f"max_group_size must be >= 1, got {self.max_group_size}"
            )
        if self.bits_per_file <= 0:
            raise ValueError(
                f"bits_per_file must be positive, got {self.bits_per_file}"
            )
        if self.expected_files_per_mds <= 0:
            raise ValueError(
                "expected_files_per_mds must be positive, "
                f"got {self.expected_files_per_mds}"
            )
        if self.lru_capacity <= 0:
            raise ValueError(f"lru_capacity must be positive, got {self.lru_capacity}")
        if self.update_threshold_bits < 0:
            raise ValueError(
                "update_threshold_bits must be non-negative, "
                f"got {self.update_threshold_bits}"
            )
        if self.heartbeat_interval_s <= 0 or self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat intervals must be positive")
        if self.memory_budget_bytes is not None and self.memory_budget_bytes < 0:
            raise ValueError(
                "memory_budget_bytes must be non-negative, "
                f"got {self.memory_budget_bytes}"
            )
        if self.lru_policy not in ("lru", "fifo", "lfu"):
            raise ValueError(
                f"lru_policy must be 'lru', 'fifo' or 'lfu', "
                f"got {self.lru_policy!r}"
            )
        if self.cooperative_fanout < 0:
            raise ValueError(
                f"cooperative_fanout must be non-negative, "
                f"got {self.cooperative_fanout}"
            )

    @property
    def filter_num_bits(self) -> int:
        """Size in bits of each MDS's local Bloom filter."""
        return max(64, int(self.expected_files_per_mds * self.bits_per_file))

    @property
    def filter_num_hashes(self) -> int:
        """Optimal k for the configured bit ratio."""
        return optimal_num_hashes(self.bits_per_file)

    @property
    def filter_bytes(self) -> int:
        """Payload bytes of one local filter / replica."""
        return (self.filter_num_bits + 7) // 8
