"""An MDS group: one full replica mirror, collectively.

A group of ``M'`` servers hosts exactly one Bloom filter replica for every
MDS *outside* the group (``N - M'`` replicas total), spread across members
for load balance; together with the members' own local filters the group can
answer any lookup — the "global mirror image" invariant of Section 2.1.

Replica placement inside the group is tracked by an
:class:`~repro.bloom.arrays.IDBloomFilterArray` (Section 2.4): updating a
replica first *locates* it by probing the ID filters; false candidates
simply drop the request.  Member join/leave uses the light-weight migration
of Section 3.1: each existing member offloads
``len(current_replicas) - ceil((N - M') / (M' + 1))`` replicas to a joiner,
and a leaver's replicas are redistributed to the lightest members.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bloom.arrays import ArrayLookup, IDBloomFilterArray
from repro.bloom.bloom_filter import BloomFilter
from repro.core.server import MetadataServer

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.obs.registry import MetricsRegistry


class GroupError(Exception):
    """Raised on group-invariant violations."""


# Formation and placement policy (Sections 3.1-3.2) as pure choices over
# ``{group id: size}``: the simulator (``Group`` objects) and the prototype
# (a directory of member lists) carry them out by different mechanics but
# must choose alike.
def balanced_groups(
    server_ids: Sequence[int], max_group_size: int
) -> List[List[int]]:
    """``ceil(N / M)`` groups of consecutive IDs, sizes differing by at
    most one — a trailing singleton group would otherwise host the entire
    mirror alone, defeating the load balance the scheme is built for."""
    num_groups = -(-len(server_ids) // max_group_size)  # ceil
    base_size, extra = divmod(len(server_ids), num_groups)
    groups: List[List[int]] = []
    cursor = 0
    for index in range(num_groups):
        size = base_size + (1 if index < extra else 0)
        groups.append(list(server_ids[cursor : cursor + size]))
        cursor += size
    return groups


def join_target(total_servers: int, old_size: int) -> int:
    """Replicas each member of a group of ``old_size`` keeps when one more
    joins, ``ceil((N - M') / (M' + 1))`` with N counted *after* the join;
    what a member hosts beyond it is offloaded to the newcomer."""
    return math.ceil(max(0, total_servers - (old_size + 1)) / (old_size + 1))


def group_with_room(sizes: Dict[int, int], max_group_size: int) -> Optional[int]:
    """The smallest group below M (ties to the lowest ID), or None."""
    roomy = [gid for gid, size in sizes.items() if size < max_group_size]
    return min(roomy, key=lambda gid: (sizes[gid], gid)) if roomy else None


def split_victim(sizes: Dict[int, int]) -> int:
    """The group split when none has room: the fullest, lowest ID first."""
    return max(sizes, key=lambda gid: (sizes[gid], -gid))


def merge_pair(
    sizes: Dict[int, int], max_group_size: int
) -> Optional[Tuple[int, int]]:
    """``(target, source)``: the smallest group folds into the second
    smallest when together they fit within M; None when they do not."""
    by_size = sorted(sizes, key=lambda gid: (sizes[gid], gid))
    if len(by_size) < 2:
        return None
    source, target = by_size[:2]
    if sizes[source] + sizes[target] > max_group_size:
        return None
    return (target, source)


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

    def lightest_member(self, exclude: Iterable[int] = ()) -> MetadataServer:
        """Member hosting the fewest replicas (ties broken by ID)."""
        excluded = set(exclude)
        candidates = [
            server
            for server_id, server in self._members.items()
            if server_id not in excluded
        ]
        if not candidates:
            raise GroupError(f"group {self.group_id} has no eligible members")
        return min(candidates, key=lambda s: (s.theta, s.server_id))

    # ------------------------------------------------------------------
    # Replica management
    # ------------------------------------------------------------------
    def install_replica(self, home_id: int, replica: BloomFilter) -> int:
        """Host a new replica on the lightest member; return its server ID.

        Mirrors Figure 3: the incoming replica goes to the member with the
        lightest load, which then records itself in the IDBFA.
        """
        if home_id in self._members:
            raise GroupError(
                f"MDS {home_id} is a member of group {self.group_id}; "
                "groups only host replicas of outside servers"
            )
        if self.idbfa.host_of(home_id) is not None:
            raise GroupError(
                f"group {self.group_id} already hosts a replica of {home_id}"
            )
        target = self.lightest_member()
        target.host_replica(home_id, replica)
        self.idbfa.place(home_id, target.server_id)
        return target.server_id

    def remove_replica(self, home_id: int) -> int:
        """Drop the replica of ``home_id``; return the member that held it."""
        host_id = self.idbfa.host_of(home_id)
        if host_id is None:
            raise GroupError(
                f"group {self.group_id} hosts no replica of {home_id}"
            )
        self.idbfa.unplace(home_id)
        self._members[host_id].drop_replica(home_id)
        return host_id

    def locate_replica(self, home_id: int) -> ArrayLookup:
        """Probabilistic IDBFA lookup for where a replica lives."""
        return self.idbfa.locate(home_id)

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
        lookup = self.locate_replica(home_id)
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
    # Membership changes (light-weight migration, Section 3.1)
    # ------------------------------------------------------------------
    def adopt_member(self, server: MetadataServer) -> None:
        """Raw membership insert: bookkeeping only, no replica migration.

        Every path that makes ``server`` a member — including cluster
        formation, group splits, and checkpoint restore — must come through
        here (or :meth:`add_member`, which calls this) so the membership
        version, the member-ID cache, and the fused L3 probe plan stay
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

    def add_member(self, server: MetadataServer, total_servers: int) -> int:
        """Add ``server`` to the group, offloading replicas onto it.

        ``total_servers`` is N *after* the join.  Each existing member
        randomly offloads ``len(current) - ceil((N - M') / (M' + 1))``
        replicas to the newcomer (Section 3.1; we offload the highest
        replica IDs for determinism).  Returns the number migrated.
        """
        if server.server_id in self._members:
            raise GroupError(
                f"MDS {server.server_id} already in group {self.group_id}"
            )
        if server.theta:
            raise GroupError("joining server must not host replicas yet")
        old_size = self.size
        self.idbfa.add_member(server.server_id)
        self.adopt_member(server)
        if old_size == 0:
            return 0
        target_per_member = join_target(total_servers, old_size)
        migrated = 0
        for member in self.members():
            if member.server_id == server.server_id:
                continue
            excess = member.theta - target_per_member
            for _ in range(max(0, excess)):
                home_id = max(member.hosted_replicas())
                replica = member.drop_replica(home_id)
                server.host_replica(home_id, replica)
                self.idbfa.move(home_id, server.server_id)
                migrated += 1
        # A member's own filter must never be hosted by itself as a replica;
        # if the group previously held a replica of the joining server
        # (it was in another group before), the cluster removes it first.
        return migrated

    def remove_member(self, server_id: int) -> Tuple[MetadataServer, int]:
        """Remove a member, migrating its replicas to remaining members.

        Returns the removed server and the number of replicas migrated.
        Raises if this is the last member (the cluster must dissolve the
        group instead).
        """
        server = self.get_member(server_id)
        if self.size == 1:
            raise GroupError(
                f"cannot remove last member of group {self.group_id}; "
                "dissolve the group instead"
            )
        hosted = list(server.hosted_replicas())
        self.abandon_member(server_id)
        self.idbfa.remove_member(server_id)
        migrated = 0
        for home_id in hosted:
            replica = server.drop_replica(home_id)
            target = self.lightest_member()
            target.host_replica(home_id, replica)
            self.idbfa.place(home_id, target.server_id)
            migrated += 1
        return server, migrated

    def rebalance(self) -> int:
        """Even out replica counts across members (imbalance <= 1).

        Replica deletions (departed servers elsewhere in the system) remove
        load from whichever member happened to host them; this light-weight
        pass migrates replicas from the heaviest to the lightest member
        until balanced.  Returns the number of replicas moved.
        """
        moved = 0
        while True:
            members = self.members()
            if len(members) < 2:
                return moved
            heaviest = max(members, key=lambda s: (s.theta, -s.server_id))
            lightest = min(members, key=lambda s: (s.theta, s.server_id))
            if heaviest.theta - lightest.theta <= 1:
                return moved
            home_id = max(heaviest.hosted_replicas())
            replica = heaviest.drop_replica(home_id)
            lightest.host_replica(home_id, replica)
            self.idbfa.move(home_id, lightest.server_id)
            moved += 1

    def dissolve(self) -> List[Tuple[int, BloomFilter]]:
        """Empty the group, returning every hosted ``(home_id, replica)``."""
        replicas: List[Tuple[int, BloomFilter]] = []
        for member in self.members():
            for home_id in list(member.hosted_replicas()):
                replicas.append((home_id, member.drop_replica(home_id)))
        for server_id in self.member_ids():
            self.abandon_member(server_id)
        self.idbfa = IDBloomFilterArray()
        return replicas

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
            for bits, home_id in pairs:
                if (bits._value & mask) == mask:
                    add_hit(home_id)
            # The local filter can be swapped wholesale (rebuilds, restore
            # from checkpoint), so fetch it fresh and re-check its family.
            local = member.local_filter
            if local._hashes is family:
                if (local._bits._value & mask) == mask:
                    add_hit(member.server_id)
            elif local.query(path):
                add_hit(member.server_id)
            probes += member_probes
        return ArrayLookup(hits=tuple(sorted(hits)), probes=probes)

    def _build_probe_plan(self) -> tuple:
        """Flatten the members' segment arrays for the fused L3 probe.

        The plan pairs each member with ``(bit-vector, home_id)`` tuples for
        every replica it hosts; when all filters share one (interned) hash
        family the multicast becomes one mask computation plus one AND and
        compare per replica.  Plans are push-invalidated: membership changes
        (:meth:`adopt_member` / :meth:`abandon_member`) and replica
        installs/updates/drops on any member (which funnel through
        ``MetadataServer.host_replica`` and friends) null ``_probe_plan``,
        so a non-None plan is always current and queries skip validation
        entirely.
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
                pairs.append((bloom._bits, home_id))
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
        thetas = [member.theta for member in self.members()]
        if not thetas:
            return 0
        return max(thetas) - min(thetas)

    def __repr__(self) -> str:
        return f"Group(id={self.group_id}, members={self.member_ids()})"
