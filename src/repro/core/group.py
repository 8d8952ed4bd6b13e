"""An MDS group: one full replica mirror, collectively.

A group of ``M'`` servers hosts exactly one Bloom filter replica for every
MDS *outside* the group (``N - M'`` replicas total), spread across members
for load balance; together with the members' own local filters the group can
answer any lookup — the "global mirror image" invariant of Section 2.1.

Replica placement inside the group is tracked by an
:class:`~repro.bloom.arrays.IDBloomFilterArray` (Section 2.4): updating a
replica first *locates* it by probing the ID filters; false candidates
simply drop the request.  The group only *carries out* membership and
placement changes, on the member it is told: who joins, leaves, offloads
or receives what is decided in :mod:`repro.core.reconfiguration`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.bloom.arrays import ArrayLookup, BloomFilterArray, IDBloomFilterArray
from repro.bloom.bloom_filter import BloomFilter
from repro.core.cellindex import CellIndex
from repro.core.reconfiguration import imbalance
from repro.core.server import MetadataServer

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.obs.registry import MetricsRegistry


class GroupError(Exception):
    """Raised on group-invariant violations."""


class Group:
    """A logical group of metadata servers.

    ``index`` is the cell index its members are in (the cluster's); the
    L3 multicast reads it.  ``metrics`` (optional, the cluster's shared
    registry) adds per-group replica-update accounting: intra-group
    messages spent locating and replacing replicas, and how many IDBFA
    candidates were false positives.
    """

    def __init__(
        self,
        group_id: int,
        index: CellIndex,
        metrics: "Optional[MetricsRegistry]" = None,
    ) -> None:
        self.group_id = group_id
        self._index = index
        self._members: Dict[int, MetadataServer] = {}
        self.idbfa = IDBloomFilterArray()
        #: One L3 row per member: ``(server id, server.segment, its L2
        #: probe counter)``.  None of the three is ever rebound on a
        #: server, so only a membership change touches a row.
        self._rows: Dict[int, Tuple[int, BloomFilterArray, object]] = {}
        if metrics is not None:
            self._update_messages = metrics.counter(
                "ghba_replica_update_messages_total",
                "Intra-group messages spent on replica updates, by group.",
                labels=("group",),
            ).labels(group_id)
            self._update_false_candidates = metrics.counter(
                "ghba_replica_update_false_candidates_total",
                "IDBFA false-positive candidates hit during replica "
                "updates, by group.",
                labels=("group",),
            ).labels(group_id)
        else:
            self._update_messages = None
            self._update_false_candidates = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._members)

    def member_ids(self) -> List[int]:
        return sorted(self._members)

    def members(self) -> List[MetadataServer]:
        members = self._members
        return [members[mid] for mid in self.member_ids()]

    def iter_members(self) -> Iterable[MetadataServer]:
        """Members in arbitrary order, without building a sorted list."""
        return self._members.values()

    def get_member(self, server_id: int) -> MetadataServer:
        try:
            return self._members[server_id]
        except KeyError:
            raise KeyError(
                f"MDS {server_id} is not in group {self.group_id}"
            ) from None

    def __contains__(self, server_id: int) -> bool:
        return server_id in self._members

    def hosted_replica_ids(self) -> List[int]:
        """All replica home-IDs hosted anywhere in the group."""
        return sorted(self.idbfa.placements())

    # ------------------------------------------------------------------
    # Replica management
    # ------------------------------------------------------------------
    def install_replica(
        self, home_id: int, replica: BloomFilter, host: MetadataServer
    ) -> None:
        """``host`` starts hosting the replica of ``home_id`` and records
        itself in the IDBFA (Figure 3)."""
        if home_id in self._members:
            raise GroupError(
                f"MDS {home_id} is a member of group {self.group_id}; "
                "groups only host replicas of outside servers"
            )
        if self.idbfa.host_of(home_id) is not None:
            raise GroupError(
                f"group {self.group_id} already hosts a replica of {home_id}"
            )
        host.host_replica(home_id, replica)
        self.idbfa.place(home_id, host.server_id)

    def move_replica(
        self, home_id: int, src: MetadataServer, dst: MetadataServer
    ) -> None:
        """Migrate the replica of ``home_id`` from ``src`` to ``dst``."""
        dst.host_replica(home_id, src.drop_replica(home_id))
        self.idbfa.move(home_id, dst.server_id)

    def remove_replica(self, home_id: int, host: MetadataServer) -> None:
        """``host`` stops hosting the replica of ``home_id``."""
        if self.idbfa.host_of(home_id) != host.server_id:
            raise GroupError(
                f"MDS {host.server_id} hosts no replica of {home_id} "
                f"for group {self.group_id}"
            )
        self.idbfa.unplace(home_id)
        host.drop_replica(home_id)

    def update_replica(self, home_id: int, replica: BloomFilter) -> Tuple[int, int]:
        """Replace the stored replica of ``home_id`` with a fresh copy.

        Follows the paper's two-step update: locate via the IDBFA (possibly
        contacting false-positive candidates, which drop the request), then
        replace at the true host.

        Returns
        -------
        (messages, false_candidates):
            Messages sent within the group for this update and how many
            contacted members turned out not to hold the replica.
        """
        true_host = self.idbfa.host_of(home_id)
        if true_host is None:
            raise GroupError(
                f"group {self.group_id} hosts no replica of {home_id}"
            )
        lookup = self.idbfa.locate(home_id)
        candidates = set(lookup.hits) | {true_host}
        false_candidates = len(candidates) - 1
        self._members[true_host].replace_replica(home_id, replica)
        if self._update_messages is not None:
            self._update_messages.inc(len(candidates))
            if false_candidates:
                self._update_false_candidates.inc(false_candidates)
        # One message per contacted candidate (false ones drop it).
        return (len(candidates), false_candidates)

    # ------------------------------------------------------------------
    # Membership changes
    # ------------------------------------------------------------------
    def adopt_member(self, server: MetadataServer) -> None:
        """Raw membership insert: bookkeeping only, no replica migration.

        Every path that makes ``server`` a member — cluster formation,
        reconfiguration, checkpoint restore — must come through here so
        the member's L3 row is there.
        """
        sid = server.server_id
        self._members[sid] = server
        self._rows[sid] = (sid, server.segment, server._l2_probe_counter)

    def abandon_member(self, server_id: int) -> MetadataServer:
        """Raw membership removal: bookkeeping only, no replica migration."""
        del self._rows[server_id]
        return self._members.pop(server_id)

    # ------------------------------------------------------------------
    # Group-level query (L3)
    # ------------------------------------------------------------------
    def multicast_query(
        self, path: str, member_ids: Optional[Iterable[int]] = None
    ) -> ArrayLookup:
        """Probe every member's segment array + local filter (L3).

        Returns the union of hits across the group; the probes and each
        member's L2 probe count are those of its own ``probe_segment``.
        With the mirror invariant intact, the group sees all N filters, so
        a genuine home MDS is always among the hits.  ``member_ids``
        restricts the probe to the members a (possibly faulty) multicast
        actually reached; the default probes everyone.  The members'
        scopes are OR-ed, so the index is read once for the whole group.
        """
        rows = self._rows.values()
        if member_ids is not None:
            rows = [self._rows[mid] for mid in member_ids]
        index = self._index
        scopes, fallback = index.scope, index.fallback
        scope = probes = 0
        pairs: tuple = ()
        for sid, segment, counter in rows:
            if counter is not None:
                counter.inc()
            scope |= scopes[sid]
            if fallback[sid]:
                pairs += fallback[sid]
            probes += len(segment._pairs) + 1
        return ArrayLookup(hits=index.lookup(path, scope, pairs), probes=probes)

    def load_imbalance(self) -> int:
        """Max minus min replicas per member (0 or 1 when balanced)."""
        return imbalance(member.theta for member in self._members.values())

    def __repr__(self) -> str:
        return f"Group(id={self.group_id}, members={self.member_ids()})"
