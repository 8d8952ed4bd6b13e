"""Modular-hash replica placement — the design Section 2.4 argues against.

Instead of tracking replica locations in an IDBFA, a group could place the
replica of MDS ``r`` on member ``members[hash(r) % M']``.  Placement is then
stateless — but when the member list changes, the modulus changes, and every
replica whose recomputed target differs must migrate.  The expected number
of migrations on a join is ``(N - M') * (1 - 1/(M' + 1))``, i.e. almost all
of them, versus G-HBA's ``(N - M') / (M' + 1)`` (Figure 11).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence


def _stable_hash(value: int) -> int:
    """A deterministic 64-bit hash (``hash()`` is salted per process)."""
    payload = value.to_bytes(16, "big", signed=True) + bytes(8)
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "big"
    )


class HashPlacementGroup:
    """A group whose replica→member assignment is ``hash(replica) % M'``.

    Parameters
    ----------
    member_ids:
        Initial member MDS IDs (order matters: the modulus indexes into the
        sorted member list).
    """

    def __init__(self, member_ids: Sequence[int]) -> None:
        if not member_ids:
            raise ValueError("a group needs at least one member")
        if len(set(member_ids)) != len(member_ids):
            raise ValueError("member_ids must be unique")
        self._members: List[int] = sorted(member_ids)
        self._placements: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Placement function
    # ------------------------------------------------------------------
    def target_of(self, replica_id: int) -> int:
        """The member that must host ``replica_id`` under the current M'."""
        index = _stable_hash(replica_id) % len(self._members)
        return self._members[index]

    # ------------------------------------------------------------------
    # Replica management
    # ------------------------------------------------------------------
    def place(self, replica_id: int) -> int:
        """Place a replica at its hash target; return the hosting member."""
        if replica_id in self._placements:
            raise ValueError(f"replica {replica_id} already placed")
        target = self.target_of(replica_id)
        self._placements[replica_id] = target
        return target

    def place_all(self, replica_ids: Sequence[int]) -> None:
        for replica_id in replica_ids:
            self.place(replica_id)

    def host_of(self, replica_id: int) -> int:
        return self._placements[replica_id]

    # ------------------------------------------------------------------
    # Reconfiguration — the expensive part
    # ------------------------------------------------------------------
    def _rehash_all(self) -> int:
        """Recompute every placement; return the number that moved."""
        migrated = 0
        for replica_id, old_host in list(self._placements.items()):
            new_host = self.target_of(replica_id)
            if new_host != old_host:
                self._placements[replica_id] = new_host
                migrated += 1
        return migrated

    def add_member(self, member_id: int) -> int:
        """Add a member; rehash everything.  Returns replicas migrated."""
        if member_id in self._members:
            raise ValueError(f"member {member_id} already present")
        self._members.append(member_id)
        self._members.sort()
        return self._rehash_all()

    def remove_member(self, member_id: int) -> int:
        """Remove a member; rehash everything.  Returns replicas migrated."""
        if member_id not in self._members:
            raise KeyError(f"member {member_id} not present")
        if len(self._members) == 1:
            raise ValueError("cannot remove the last member")
        self._members.remove(member_id)
        return self._rehash_all()

    def __repr__(self) -> str:
        return (
            f"HashPlacementGroup(members={len(self._members)}, "
            f"replicas={len(self._placements)})"
        )


def hash_join_migrations(num_servers: int, group_size: int) -> int:
    """Replicas migrated when one MDS joins a hash-placed group.

    Sets up a group of ``group_size`` members hosting the
    ``num_servers - group_size`` outside replicas, then adds one member and
    counts the reassignments — the quantity plotted for "Hash Placement" in
    Figure 11.
    """
    if group_size < 1 or group_size > num_servers:
        raise ValueError(
            f"need 1 <= group_size <= num_servers, got M'={group_size}, "
            f"N={num_servers}"
        )
    members = list(range(group_size))
    outside = list(range(group_size, num_servers))
    group = HashPlacementGroup(members)
    group.place_all(outside)
    return group.add_member(num_servers)
