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

from repro.bloom.arrays import ArrayLookup, IDBloomFilterArray
from repro.bloom.bloom_filter import BloomFilter
from repro.core.reconfiguration import imbalance
from repro.core.server import MetadataServer

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.obs.registry import MetricsRegistry


class GroupError(Exception):
    """Raised on group-invariant violations."""


class Group:
    """A logical group of metadata servers.

    ``metrics`` (optional, the cluster's shared registry) adds per-group
    replica-update accounting: intra-group messages spent locating and
    replacing replicas, and how many IDBFA candidates were false positives.
    """

    def __init__(
        self,
        group_id: int,
        metrics: "Optional[MetricsRegistry]" = None,
    ) -> None:
        self.group_id = group_id
        self._members: Dict[int, MetadataServer] = {}
        self.idbfa = IDBloomFilterArray()
        # Fused L3 probe plan: a flattened (member, bit-vector, home-id)
        # view of every member's segment array, rebuilt lazily whenever
        # membership or any member's segment version changes.
        self._probe_plan: Optional[tuple] = None
        self._membership_version = 0
        self._member_ids_cache: Optional[Tuple[int, List[int]]] = None
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
        cache = self._member_ids_cache
        if cache is None or cache[0] != self._membership_version:
            cache = (self._membership_version, sorted(self._members))
            self._member_ids_cache = cache
        return list(cache[1])

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
        reconfiguration, checkpoint restore — must come through here so the
        membership version, the member-ID cache, and the fused L3 probe plan stay
        coherent.  The group also registers itself on the server: replica
        installs/updates/drops on any member push-invalidate the plan.
        """
        self._members[server.server_id] = server
        self._membership_version += 1
        server._plan_owners.append(self)
        self._probe_plan = None

    def abandon_member(self, server_id: int) -> MetadataServer:
        """Raw membership removal: bookkeeping only, no replica migration."""
        server = self._members.pop(server_id)
        self._membership_version += 1
        server._plan_owners.remove(self)
        self._probe_plan = None
        return server

    # ------------------------------------------------------------------
    # Group-level query (L3)
    # ------------------------------------------------------------------
    def multicast_query(
        self, path: str, member_ids: Optional[Iterable[int]] = None
    ) -> ArrayLookup:
        """Probe every member's segment array + local filter (L3).

        Returns the union of hits across the group.  With the mirror
        invariant intact, the group sees all N filters, so a genuine home
        MDS is always among the hits.  ``member_ids`` restricts the probe
        to the members a (possibly faulty) multicast actually reached; the
        default probes everyone.
        """
        if member_ids is not None:
            ids = list(member_ids)
            if len(ids) != len(self._members) or set(ids) != self._members.keys():
                # Partial multicast (fault-restricted): probe just the
                # reachable members, outside the fused plan.
                hits: set = set()
                probes = 0
                for mid in ids:
                    probes += self._members[mid].probe_segment_into(path, hits)
                return ArrayLookup(hits=tuple(sorted(hits)), probes=probes)
        plan = self._probe_plan
        if plan is None:
            plan = self._build_probe_plan()
        entries, family = plan
        hits = set()
        probes = 0
        if family is None:
            # Mixed hash geometries: fall back to per-member probes.
            for member, _pairs, _member_probes, _counter in entries:
                probes += member.probe_segment_into(path, hits)
            return ArrayLookup(hits=tuple(sorted(hits)), probes=probes)
        mask = family.mask(path)
        add_hit = hits.add
        for member, pairs, member_probes, counter in entries:
            if counter is not None:
                counter.inc()
            for bloom, home_id in pairs:
                if (bloom._bits & mask) == mask:
                    add_hit(home_id)
            # The local filter can be swapped wholesale (rebuilds, restore
            # from checkpoint), so fetch it fresh and re-check its family.
            local = member.local_filter
            if local._hashes is family:
                if (local._bits & mask) == mask:
                    add_hit(member.server_id)
            elif local.query(path):
                add_hit(member.server_id)
            probes += member_probes
        return ArrayLookup(hits=tuple(sorted(hits)), probes=probes)

    def _build_probe_plan(self) -> tuple:
        """Flatten the members' segment arrays for the fused L3 probe.

        The plan pairs each member with ``(filter, home_id)`` tuples for
        every replica it hosts; when all filters share one (interned) hash
        family the multicast becomes one mask computation plus one AND and
        compare per replica.  The plan holds the filter, not its ``_bits``
        int, and reads the int on every probe: a replica updated in place
        must not leave a stale copy behind.  Plans are push-invalidated:
        membership changes (:meth:`adopt_member` / :meth:`abandon_member`)
        and replica installs/updates/drops on any member (which funnel
        through ``MetadataServer.host_replica`` and friends) null
        ``_probe_plan``, so a non-None plan is always current and queries
        skip validation entirely.
        """
        family = None
        fused = True
        entries = []
        for mid in sorted(self._members):
            member = self._members[mid]
            pairs = []
            for home_id, bloom in member.segment._filters.items():
                if family is None:
                    family = bloom._hashes
                elif bloom._hashes is not family:
                    fused = False
                pairs.append((bloom, home_id))
            local_family = member.local_filter._hashes
            if family is None:
                family = local_family
            elif local_family is not family:
                fused = False
            entries.append(
                (member, tuple(pairs), len(pairs) + 1, member._l2_probe_counter)
            )
        plan = (entries, family if fused else None)
        self._probe_plan = plan
        return plan

    # ------------------------------------------------------------------
    # Invariant checking (used heavily in tests)
    # ------------------------------------------------------------------
    def check_mirror_invariant(self, all_server_ids: Iterable[int]) -> None:
        """Assert the group collectively covers every outside MDS exactly once.

        Raises :class:`GroupError` with a description on violation.
        """
        expected = set(all_server_ids) - set(self._members)
        hosted: Dict[int, int] = {}
        for member in self.members():
            for home_id in member.hosted_replicas():
                if home_id in hosted:
                    raise GroupError(
                        f"replica of {home_id} hosted twice in group "
                        f"{self.group_id} (on {hosted[home_id]} and "
                        f"{member.server_id})"
                    )
                hosted[home_id] = member.server_id
        if set(hosted) != expected:
            missing = expected - set(hosted)
            extra = set(hosted) - expected
            raise GroupError(
                f"group {self.group_id} mirror broken: missing={sorted(missing)}, "
                f"extra={sorted(extra)}"
            )
        placements = self.idbfa.placements()
        if placements != hosted:
            raise GroupError(
                f"group {self.group_id} IDBFA out of sync with hosting: "
                f"idbfa={placements}, actual={hosted}"
            )

    def load_imbalance(self) -> int:
        """Max minus min replicas per member (0 or 1 when balanced)."""
        return imbalance(member.theta for member in self._members.values())

    def __repr__(self) -> str:
        return f"Group(id={self.group_id}, members={self.member_ids()})"
