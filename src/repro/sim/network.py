"""Network and device latency model.

All latency constants live here so that every experiment draws from one
consistent model.  The defaults reproduce the *ordering* the paper depends
on — memory probes are microseconds, LAN messages are fractions of a
millisecond, disk accesses are milliseconds — without claiming the authors'
absolute hardware numbers (our substrate is a simulator; see DESIGN.md §2).

Multicast costs follow the paper's usage: a group multicast contacts the
other ``M' - 1`` group members and waits for the slowest response (one round
trip plus a small per-destination sending overhead); a global multicast does
the same across all remaining MDSs in the system.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkModel:
    """Latency constants, all expressed in milliseconds.

    Attributes
    ----------
    memory_probe_ms:
        One Bloom filter probe against an in-memory filter.
    memory_record_ms:
        Fetching a memory-resident metadata record.
    disk_access_ms:
        One disk access (probing a spilled Bloom filter page or reading an
        on-disk metadata record).
    unicast_ms:
        One-way LAN message latency.
    per_destination_send_ms:
        Sender-side overhead per additional multicast destination (models
        serialization at the NIC; makes wide multicasts more expensive).
    """

    memory_probe_ms: float = 0.002
    memory_record_ms: float = 0.01
    disk_access_ms: float = 5.0
    unicast_ms: float = 0.2
    per_destination_send_ms: float = 0.01

    def __post_init__(self) -> None:
        for name in (
            "memory_probe_ms",
            "memory_record_ms",
            "disk_access_ms",
            "unicast_ms",
            "per_destination_send_ms",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    # ------------------------------------------------------------------
    # Elementary costs
    # ------------------------------------------------------------------
    def probe_cost_ms(self, num_filters: int, in_memory_fraction: float = 1.0) -> float:
        """Cost of probing ``num_filters`` Bloom filters on one node.

        ``in_memory_fraction`` is the fraction of the filters resident in
        memory (an MDS's ``resident_fraction``); the remainder costs a
        disk access each.
        """
        if num_filters < 0:
            raise ValueError(f"num_filters must be non-negative, got {num_filters}")
        if not 0.0 <= in_memory_fraction <= 1.0:
            raise ValueError(
                f"in_memory_fraction must be in [0, 1], got {in_memory_fraction}"
            )
        in_memory = num_filters * in_memory_fraction
        spilled = num_filters - in_memory
        return in_memory * self.memory_probe_ms + spilled * self.disk_access_ms

    def round_trip_ms(self) -> float:
        """One request/response exchange between two nodes."""
        return 2.0 * self.unicast_ms

    def multicast_ms(self, fanout: int) -> float:
        """Multicast to ``fanout`` destinations and gather all responses.

        Cost is one round trip (destinations respond concurrently) plus the
        sender's per-destination serialization overhead.
        """
        if fanout < 0:
            raise ValueError(f"fanout must be non-negative, got {fanout}")
        if fanout == 0:
            return 0.0
        return self.round_trip_ms() + fanout * self.per_destination_send_ms

    def group_multicast_ms(self, group_size: int) -> float:
        """Multicast within a group of ``group_size`` MDSs (self excluded)."""
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        return self.multicast_ms(group_size - 1)

    def global_multicast_ms(self, num_servers: int) -> float:
        """Multicast to every other MDS in an ``num_servers`` system."""
        if num_servers < 1:
            raise ValueError(f"num_servers must be >= 1, got {num_servers}")
        return self.multicast_ms(num_servers - 1)
