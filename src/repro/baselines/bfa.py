"""Pure Bloom Filter Array (BFA) — Table 5's BFA8 / BFA16 baselines.

BFA is HBA without the LRU front-end: every MDS holds one Bloom filter per
MDS in the system (its own plus N - 1 replicas) at a fixed bit/file ratio.
The paper uses it only as the unit of Table 5's memory comparison, so it is
a formula here; a live array at M = 1 (``HBACluster``'s replica segment
plus local filter) measures the same bytes.
"""

from __future__ import annotations


def bfa_memory_bytes_per_server(
    num_servers: int, files_per_server: int, bits_per_file: float
) -> int:
    """Per-MDS memory of a BFA deployment: N filters (its own + N - 1
    replicas), each sized for ``files_per_server`` items at
    ``bits_per_file``."""
    if num_servers < 1:
        raise ValueError(f"num_servers must be >= 1, got {num_servers}")
    if files_per_server <= 0:
        raise ValueError(
            f"files_per_server must be positive, got {files_per_server}"
        )
    if bits_per_file <= 0:
        raise ValueError(f"bits_per_file must be positive, got {bits_per_file}")
    filter_bytes = (int(files_per_server * bits_per_file) + 7) // 8
    return num_servers * filter_bytes
