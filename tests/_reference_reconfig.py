"""Frozen reference: the simulator's reconfiguration as it stood before
ISSUE 17 moved every choice into ``repro.core.reconfiguration``.

The bodies are verbatim copies of ``GHBACluster.add_server`` /
``_split_for`` / ``_fetch_replicas`` / ``remove_server`` / ``_excise`` /
``_maybe_merge`` / ``_merge_groups`` / ``fail_server`` /
``recover_server`` and of the choosing methods of ``Group``
(``lightest_member``, ``install_replica``, ``remove_replica``,
``add_member``, ``remove_member``, ``rebalance``, ``dissolve``) and of
the four placement helpers that lived beside them (``join_target``,
``group_with_room``, ``split_victim``, ``merge_pair``) — the methods
became module functions whose first parameter is still called ``self``
(the cluster or the group), and calls between them go to the frozen
copies instead of the live methods.  They use only what the live classes
keep: ``adopt_member`` / ``abandon_member``, the IDBFA, a server's
``host_replica`` / ``drop_replica``, and the cluster's own indexes.
``tests/property/test_reconfig_differential.py`` replays seeded add /
remove / fail / recover scripts through a live cluster and a twin driven
by these functions and diffs every observable — so do not "fix" or
modernize this file; it is the oracle, like ``_reference_rename.py``.

One thing differs from the pre-ISSUE-17 code, on purpose: ``_merge_groups``
ends with a ``ref_rebalance(target)`` pass, charged like every other
(marked below).  The original forgot the pass its join has, and a merge could leave a group at per-member
replica counts like ``[1, 0, 3, 0, 1, 1, 1, 1]``; ISSUE 17's second
commit fixed that in the plan's merge, and the oracle got the same fix so
it keeps gating everything else.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bloom.arrays import IDBloomFilterArray
from repro.bloom.bloom_filter import BloomFilter
from repro.core.cluster import MutationEvent, ReconfigReport
from repro.core.group import Group, GroupError
from repro.core.server import MetadataServer
from repro.metadata.attributes import FileMetadata


# ----------------------------------------------------------------------
# The placement choices PR 15 exported from ``core/group.py``
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# Group: the choosing methods
# ----------------------------------------------------------------------
def ref_lightest_member(self, exclude: Iterable[int] = ()) -> MetadataServer:
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


def ref_install_replica(self, home_id: int, replica: BloomFilter) -> int:
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
    target = ref_lightest_member(self)
    target.host_replica(home_id, replica)
    self.idbfa.place(home_id, target.server_id)
    return target.server_id


def ref_remove_replica(self, home_id: int) -> int:
    """Drop the replica of ``home_id``; return the member that held it."""
    host_id = self.idbfa.host_of(home_id)
    if host_id is None:
        raise GroupError(
            f"group {self.group_id} hosts no replica of {home_id}"
        )
    self.idbfa.unplace(home_id)
    self._members[host_id].drop_replica(home_id)
    return host_id


def ref_add_member(self, server: MetadataServer, total_servers: int) -> int:
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


def ref_remove_member(self, server_id: int) -> Tuple[MetadataServer, int]:
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
        target = ref_lightest_member(self)
        target.host_replica(home_id, replica)
        self.idbfa.place(home_id, target.server_id)
        migrated += 1
    return server, migrated


def ref_rebalance(self) -> int:
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


def ref_dissolve(self) -> List[Tuple[int, BloomFilter]]:
    """Empty the group, returning every hosted ``(home_id, replica)``."""
    replicas: List[Tuple[int, BloomFilter]] = []
    for member in self.members():
        for home_id in list(member.hosted_replicas()):
            replicas.append((home_id, member.drop_replica(home_id)))
    for server_id in self.member_ids():
        self.abandon_member(server_id)
    self.idbfa = IDBloomFilterArray()
    return replicas


# ----------------------------------------------------------------------
# Cluster: reconfiguration (Sections 3.1-3.2)
# ----------------------------------------------------------------------
def _group_sizes(self) -> Dict[int, int]:
    return {gid: group.size for gid, group in self.groups.items()}


def ref_add_server(self) -> ReconfigReport:
    """Add one MDS (Section 3.1), splitting a group if needed (3.2)."""
    server = self._new_server()
    report = ReconfigReport(server_id=server.server_id)
    room = group_with_room(_group_sizes(self), self.config.max_group_size)
    if room is None:
        group = _split_for(self, server, report)
    else:
        group = self.groups[room]
    n_after = self.num_servers
    migrated = ref_add_member(group, server, n_after)
    self._group_of[server.server_id] = group.group_id
    # The ceil-based offload can leave the newcomer empty when members
    # sit exactly at the target; a rebalance pass evens things out.
    migrated += ref_rebalance(group)
    # Mirror repair: a group born empty from an M=1 split holds no
    # replicas yet — the newcomer fetches the full mirror now.
    hosted = set(group.hosted_replica_ids())
    lacking = [
        server_id
        for server_id in self.server_ids()
        if server_id not in group and server_id not in hosted
    ]
    _fetch_replicas(self, group, lacking, report)
    report.migrated_replicas += migrated
    report.messages += migrated  # each migrated replica is one transfer
    # Light-weight migration bookkeeping: the updated IDBFA is multicast
    # to the group (one message per existing member).
    report.messages += group.size - 1
    # The new server's (empty) filter is replicated to one MDS of every
    # other group (Figure 15's principal saving vs. HBA).
    replica_template = server.publish_filter()
    for other in self.groups.values():
        if other.group_id == group.group_id:
            continue
        ref_install_replica(other, server.server_id, replica_template.copy())
        report.messages += 1
    return report


def _split_for(self, server: MetadataServer, report: ReconfigReport) -> Group:
    """Split the fullest group to make room for ``server``.

    Implements Section 3.2: adding to a group with M members divides it
    into two groups of ``M - floor(M/2)`` and ``floor(M/2) + 1``
    (including the newcomer).  Equivalent to deleting ``floor(M/2)``
    members from the old group and inserting them into the new one.
    """
    victim = self.groups[split_victim(_group_sizes(self))]
    half = self.config.max_group_size // 2
    to_move = victim.member_ids()[-half:] if half else []
    new_group = self._new_group()
    report.split = True
    report.new_group_id = new_group.group_id
    # Step 1: deletion of floor(M/2) members from the victim group —
    # their hosted replicas migrate to the remaining members.
    moved_servers: List[MetadataServer] = []
    for server_id in to_move:
        member, migrated = ref_remove_member(victim, server_id)
        report.migrated_replicas += migrated
        report.messages += migrated
        moved_servers.append(member)
    # Step 2: insert them into the new group.
    for member in moved_servers:
        new_group.idbfa.add_member(member.server_id)
        new_group.adopt_member(member)
        self._group_of[member.server_id] = new_group.group_id
    # Step 3: the new group must rebuild a full mirror — a replica of
    # every server outside it.  With M = 1 no members moved, so the
    # group is still empty here; the newcomer installs the mirror after
    # joining (see the post-join repair in add_server).
    if new_group.size > 0:
        outside = [
            server_id
            for server_id in self.server_ids()
            if server_id not in new_group and server_id != server.server_id
        ]
        _fetch_replicas(self, new_group, outside, report)
    # Step 4: the shrunken old group now lacks replicas of the members
    # that left (they were internal before; now they are outside).
    _fetch_replicas(self, victim, to_move, report)
    # ... and the new group must not host replicas of its own members;
    # none were installed above, so the mirror invariant holds.
    return new_group


def _fetch_replicas(
    self, group: Group, home_ids: Iterable[int], report: ReconfigReport
) -> None:
    """``group`` installs the last published filter of each server in
    ``home_ids``: one migrated replica and one transfer apiece."""
    for home_id in home_ids:
        replica = self.servers[home_id].published_filter.copy()
        ref_install_replica(group, home_id, replica)
        report.migrated_replicas += 1
        report.messages += 1


def ref_remove_server(self, server_id: int, rehome: bool = True) -> ReconfigReport:
    """Gracefully remove an MDS (Section 3.1's departure procedure)."""
    if server_id not in self.servers:
        raise KeyError(f"unknown server {server_id}")
    if self.num_servers == 1:
        raise GroupError("cannot remove the last server of the cluster")
    server = self.servers[server_id]
    group = self.group_of(server_id)
    report = ReconfigReport(server_id=server_id)
    # (1) migrate its hosted replicas to the remaining group members
    if group.size > 1:
        _, migrated = ref_remove_member(group, server_id)
        report.migrated_replicas += migrated
        report.messages += migrated
        report.messages += group.size  # updated IDBFA multicast
    else:
        orphaned = ref_dissolve(group)
        del self.groups[group.group_id]
        report.migrated_replicas += 0  # replicas existed elsewhere too
        report.messages += len(orphaned)
    # Re-home the departing server's metadata so files stay reachable.
    orphans = list(server.store.records()) if rehome else []
    _excise(self, server_id, report, orphans)
    return report


def _excise(
    self,
    server_id: int,
    report: ReconfigReport,
    orphans: Sequence[FileMetadata] = (),
) -> None:
    """What every departure, graceful or crash, does once the server's
    own group has let it go: drop it from the indexes, have every
    other group delete its replica and rebalance the freed load
    (Section 3.1 steps 2-3), re-home ``orphans`` round-robin, drop the
    L1 entries naming it, tell the listeners, merge what now fits."""
    del self._group_of[server_id]
    del self.servers[server_id]
    self._sorted_ids.remove(server_id)
    for other in self.groups.values():
        if server_id in other.hosted_replica_ids():
            ref_remove_replica(other, server_id)
            report.messages += 1
        moved = ref_rebalance(other)
        report.migrated_replicas += moved
        report.messages += moved
    if orphans:
        target_ids = sorted(self.servers)
        for index, meta in enumerate(orphans):
            target = self.servers[target_ids[index % len(target_ids)]]
            target.insert_metadata(meta)
        report.messages += len(orphans)
    for remaining in self.servers.values():
        remaining.lru.invalidate_home(server_id)
    if self._mutation_listeners:
        self._notify(
            MutationEvent(op="server_removed", home_id=server_id)
        )
    _maybe_merge(self, report)


def _maybe_merge(self, report: ReconfigReport) -> None:
    """Merge the two smallest groups while they fit within M (3.2)."""
    while True:
        pair = merge_pair(_group_sizes(self), self.config.max_group_size)
        if pair is None:
            return
        target, source = pair
        _merge_groups(self, self.groups[target], self.groups[source], report)
        report.merged = True


def _merge_groups(self, target: Group, source: Group, report: ReconfigReport) -> None:
    """Fold ``source`` into ``target`` via light-weight migration."""
    members = source.members()
    ref_dissolve(source)  # duplicates of replicas target already holds
    del self.groups[source.group_id]
    for member in members:
        # target currently hosts a replica of this (previously outside)
        # member; drop it before the member joins.
        if member.server_id in target.hosted_replica_ids():
            ref_remove_replica(target, member.server_id)
            report.messages += 1
        migrated = ref_add_member(target, member, self.num_servers)
        self._group_of[member.server_id] = target.group_id
        report.migrated_replicas += migrated
        report.messages += migrated + target.size - 1
    moved = ref_rebalance(target)  # the ISSUE 17 fix; see the header
    report.migrated_replicas += moved
    report.messages += moved


# ----------------------------------------------------------------------
# Failure handling (Section 4.5)
# ----------------------------------------------------------------------
def ref_fail_server(self, server_id: int) -> ReconfigReport:
    """Crash-remove an MDS: its metadata is lost, filters are excised.

    The service remains functional at degraded coverage — lookups for
    files homed on the failed MDS resolve to NEGATIVE instead of
    misrouting, because every replica of its filter is removed.
    The failed server's *hosted* replicas are re-fetched from their
    home servers' published filters to restore the group mirror.
    """
    if server_id not in self.servers:
        raise KeyError(f"unknown server {server_id}")
    if self.num_servers == 1:
        raise GroupError("cannot fail the last server of the cluster")
    group = self.group_of(server_id)
    report = ReconfigReport(server_id=server_id)
    # The crashed server's metadata survives on its disk; keep it so a
    # later recover_server() can restore service for its files.
    self._crashed_stores[server_id] = list(
        self.servers[server_id].store.records()
    )
    hosted = list(self.servers[server_id].hosted_replicas())
    if group.size > 1:
        # Drop without migration (the node is gone), then re-fetch.
        group.abandon_member(server_id)
        group.idbfa.remove_member(server_id)
        _fetch_replicas(self, group, hosted, report)
    else:
        ref_dissolve(group)
        del self.groups[group.group_id]
    _excise(self, server_id, report)
    return report


def ref_recover_server(self, server_id: int) -> ReconfigReport:
    """Restore a crashed MDS from its on-disk metadata (Table 1).

    The recovering server rejoins the cluster through the ordinary join
    machinery (so groups stay balanced and replicated) and then reloads
    the metadata it held at crash time from its disk; a forced filter
    publication makes its files routable again.
    """
    records = self._crashed_stores.pop(server_id, None)
    if records is None:
        raise KeyError(f"server {server_id} has no crashed state to recover")
    report = ref_add_server(self)
    recovered = self.servers[report.server_id]
    recovered.insert_many(records)
    # Re-publish to every other group so the recovered files route.
    sync = self.update_server_replicas(report.server_id)
    report.messages += sync.messages
    return report
