"""Reconfiguration as a plan (Sections 3.1-3.2): decide once, carry out twice.

``form``, ``join``, ``leave`` and ``fail`` are pure functions from a
:class:`Directory` — who is in which group, which member hosts whose
replica — to a :class:`Plan`: the directory afterwards and the ordered
:class:`Step` list that gets there.  Every choice of the scheme lives
here and nowhere else: which group takes a newcomer, which group splits
and who leaves it, which groups merge, who is lightest or heaviest, how
many replicas a member offloads and which.  The simulator
(``GHBACluster``) applies the steps to its ``Group`` objects and books
their *model* cost; the prototype (``PrototypeCluster``) sends each step
as its message and pays the *wire* cost; both read :data:`CHARGES`.

There are four kinds of step, each told to the node ``src`` that acts:

- ``move``: member ``src`` ships the replica of ``home`` to member ``dst``;
- ``fetch``: ``home`` itself (``src``) ships its published filter to ``dst``;
- ``drop``: ``src`` stops hosting the replica of ``home``;
- ``notify``: ``src`` receives the group's updated IDBFA.

Steps are ordered: a later one may ship what an earlier one delivered.
A host's replicas are kept in arrival order (the order of the
``{home: host}`` dict), which decides who gets which replica of a leaver.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

MOVE, FETCH, DROP, NOTIFY = "move", "fetch", "drop", "notify"


class Charge(NamedTuple):
    """What one step costs: messages in the analytic model, messages on
    the prototype's wire, replicas counted as migrated."""

    model: int
    wire: int
    migrated: int


#: The one charge table.  A relayed step is control + transfer on the wire
#: and a single transfer in the model.  Three rows are a kind in a
#: particular role: ``publish`` is the fetch of a newcomer's first filter
#: (new state, not migrated state), ``discard`` the drop of a duplicate
#: when a group folds into another (the model lets the IDBFA multicast
#: say it), ``lost`` the drop of what a crashed node held (nobody is told).
CHARGES: Dict[str, Charge] = {
    MOVE: Charge(1, 2, 1),
    FETCH: Charge(1, 2, 1),
    "publish": Charge(1, 2, 0),
    DROP: Charge(1, 1, 0),
    "discard": Charge(0, 1, 0),
    "lost": Charge(0, 0, 0),
    NOTIFY: Charge(1, 1, 0),
}


class Step(NamedTuple):
    """One action of a plan, inside ``group``; ``row`` names its charge."""

    kind: str
    group: int
    home: Optional[int]
    src: Optional[int]
    dst: Optional[int]
    row: str


@dataclass
class Directory:
    """Who is where: sorted members per group, ``{home: host}`` per group
    (a host's replicas in arrival order), and the next unused group ID."""

    groups: Dict[int, List[int]] = field(default_factory=dict)
    placements: Dict[int, Dict[int, int]] = field(default_factory=dict)
    next_group_id: int = 0

    def group_of(self, node_id: int) -> int:
        for gid, members in self.groups.items():
            if node_id in members:
                return gid
        raise KeyError(f"node {node_id} is in no group")

    def loads(self, gid: int) -> Dict[int, int]:
        """Replicas hosted per member of ``gid``."""
        loads = dict.fromkeys(self.groups[gid], 0)
        for host in self.placements[gid].values():
            loads[host] += 1
        return loads

    def check(self, max_group_size: int) -> None:
        """Raise AssertionError unless every node is in one group, no group
        is empty or above M, every group hosts exactly one replica of every
        outside node on its own members, and imbalance is at most one."""

        def require(holds: bool, what: str) -> None:
            if not holds:
                raise AssertionError(f"{what}: {self}")

        nodes = [node for members in self.groups.values() for node in members]
        require(len(nodes) == len(set(nodes)), "a node is in two groups")
        for gid, members in self.groups.items():
            require(0 < len(members) <= max_group_size, f"group {gid} size")
            hosts = self.placements[gid]
            outside = set(nodes) - set(members)
            require(
                set(hosts) == outside,
                f"group {gid} mirror broken: missing={sorted(outside - set(hosts))}, "
                f"extra={sorted(set(hosts) - outside)}",
            )
            require(set(hosts.values()) <= set(members), f"group {gid} hosts")
            require(
                imbalance(self.loads(gid).values()) <= 1,
                f"group {gid} unbalanced {self.loads(gid)}",
            )

    def check_hosts(self, hosted: Dict[int, List[int]]) -> None:
        """Raise AssertionError unless the nodes of ``hosted`` are this
        directory's and each hosts exactly the replicas placed on it."""
        placed: Dict[int, List[int]] = {
            node: [] for members in self.groups.values() for node in members
        }
        for hosts in self.placements.values():
            for home, host in hosts.items():
                placed[host].append(home)
        if placed.keys() != hosted.keys():
            raise AssertionError(f"nodes {sorted(hosted)}, directory {sorted(placed)}")
        for node, homes in placed.items():
            if sorted(hosted[node]) != sorted(homes):
                raise AssertionError(
                    f"node {node} hosts {sorted(hosted[node])}, "
                    f"the directory places {sorted(homes)}"
                )


@dataclass
class Plan:
    """The directory afterwards and the steps that get there."""

    directory: Directory
    steps: List[Step]
    new_group_id: Optional[int] = None  # set when the join split a group
    merged: bool = False

    def cost(self) -> Charge:
        """Column sums of :data:`CHARGES` over the steps."""
        rows = [CHARGES[step.row] for step in self.steps]
        return Charge(*map(sum, zip(*rows))) if rows else Charge(0, 0, 0)


# ----------------------------------------------------------------------
# Formation and placement policy: pure choices over ``{group id: size}``
# ----------------------------------------------------------------------
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


def imbalance(loads: Iterable[int]) -> int:
    """Max minus min replicas per member (0 or 1 when balanced)."""
    loads = list(loads)
    return max(loads) - min(loads) if loads else 0


# ----------------------------------------------------------------------
# The planner: a directory being rewritten, and the steps that rewrite it
# ----------------------------------------------------------------------
class _Planner:
    def __init__(self, directory: Directory, max_group_size: int) -> None:
        self.groups = {g: list(m) for g, m in directory.groups.items()}
        self.placements = {g: dict(h) for g, h in directory.placements.items()}
        after = Directory(self.groups, self.placements, directory.next_group_id)
        self.plan = Plan(after, [])
        self.loads = {gid: after.loads(gid) for gid in self.groups}
        self.max_group_size = max_group_size
        self.num_nodes = sum(len(members) for members in self.groups.values())

    def sizes(self) -> Dict[int, int]:
        return {gid: len(members) for gid, members in self.groups.items()}

    def node_ids(self) -> List[int]:
        return sorted(n for members in self.groups.values() for n in members)

    def hosted(self, gid: int, member: int) -> List[int]:
        """The replicas ``member`` hosts, in arrival order."""
        return [h for h, host in self.placements[gid].items() if host == member]

    def lightest(self, gid: int) -> int:
        """Member hosting the fewest replicas (ties broken by ID)."""
        loads = self.loads[gid]
        return min(self.groups[gid], key=lambda member: (loads[member], member))

    def open_group(self, members: List[int]) -> int:
        gid = self.plan.directory.next_group_id
        self.plan.directory.next_group_id += 1
        self.groups[gid] = members
        self.placements[gid] = {}
        self.loads[gid] = dict.fromkeys(members, 0)
        return gid

    def close_group(self, gid: int) -> None:
        del self.groups[gid], self.placements[gid], self.loads[gid]

    # -- the four steps: each records itself and rewrites the directory --
    def move(self, gid: int, home: int, src: int, dst: int) -> None:
        del self.placements[gid][home]  # re-inserted last: arrival order
        self.placements[gid][home] = dst
        self.loads[gid][src] -= 1
        self.loads[gid][dst] += 1
        self.plan.steps.append(Step(MOVE, gid, home, src, dst, MOVE))

    def fetch(self, gid: int, home: int, row: str = FETCH) -> None:
        """The lightest member starts hosting ``home``'s published filter
        (Figure 3)."""
        dst = self.lightest(gid)
        self.placements[gid][home] = dst
        self.loads[gid][dst] += 1
        self.plan.steps.append(Step(FETCH, gid, home, home, dst, row))

    def drop(self, gid: int, home: int, row: str = DROP) -> None:
        host = self.placements[gid].pop(home)
        self.loads[gid][host] -= 1
        self.plan.steps.append(Step(DROP, gid, home, host, None, row))

    def notify(self, gid: int, skip: Optional[int] = None) -> None:
        """Multicast the updated IDBFA to every member but ``skip``."""
        for member in self.groups[gid]:
            if member != skip:
                self.plan.steps.append(Step(NOTIFY, gid, None, member, None, NOTIFY))

    # -- light-weight migration (Section 3.1) --
    def admit(self, gid: int, node: int) -> None:
        """``node`` joins ``gid``: every member offloads what it hosts
        beyond :func:`join_target`, highest replica IDs first."""
        members = self.groups[gid]
        hosts = list(members)
        insort(members, node)
        self.loads[gid][node] = 0
        if not hosts:
            return
        keep = join_target(self.num_nodes, len(hosts))
        for member in hosts:
            excess = max(0, self.loads[gid][member] - keep)
            for home in sorted(self.hosted(gid, member), reverse=True)[:excess]:
                self.move(gid, home, member, node)

    def release(self, gid: int, node: int) -> None:
        """``node`` leaves ``gid``: each replica it hosts goes, in arrival
        order, to whoever is lightest by then."""
        hosted = self.hosted(gid, node)
        self.groups[gid].remove(node)
        for home in hosted:
            self.move(gid, home, node, self.lightest(gid))
        del self.loads[gid][node]

    def rebalance(self, gid: int) -> None:
        """Heaviest ships its highest replica ID to lightest until they
        differ by at most one."""
        members, loads = self.groups[gid], self.loads[gid]
        while len(members) > 1:
            heaviest = max(members, key=lambda m: (loads[m], -m))
            lightest = min(members, key=lambda m: (loads[m], m))
            if loads[heaviest] - loads[lightest] <= 1:
                return
            self.move(gid, max(self.hosted(gid, heaviest)), heaviest, lightest)

    # -- group split and merge (Section 3.2) --
    def split(self, victim: int) -> int:
        """Delete ``floor(M/2)`` members (the highest IDs) from ``victim``
        and insert them into a new group, which rebuilds a full mirror;
        ``victim`` fetches the filters of those who left.  With the
        newcomer the sizes are ``M - floor(M/2)`` and ``floor(M/2) + 1``.
        With M = 1 nobody moves and the new group starts empty."""
        half = self.max_group_size // 2
        leaving = self.groups[victim][-half:] if half else []
        for node in leaving:
            self.release(victim, node)
        new = self.open_group(list(leaving))
        if leaving:
            for home in self.node_ids():
                if home not in leaving:
                    self.fetch(new, home)
        for node in leaving:
            self.fetch(victim, node)
        self.plan.new_group_id = new
        return new

    def merge(self, target: int, source: int) -> None:
        """Fold ``source`` into ``target``: its members discard their
        mirror (``target`` holds one), ``target`` drops its replica of each
        and admits it like any newcomer."""
        folding = self.groups[source]
        for home in list(self.placements[source]):
            self.drop(source, home, "discard")
        self.close_group(source)
        for node in folding:
            self.drop(target, node)
            self.admit(target, node)
            self.notify(target, skip=node)
        self.rebalance(target)  # as after any join: admit() can leave 0 next to 3
        self.plan.merged = True

    def excise(self, node: int) -> None:
        """What every departure does once the node's own group let it go:
        every group drops its replica of ``node`` and rebalances the freed
        load, then the two smallest groups merge while they fit in M."""
        for gid in self.groups:
            if node in self.placements[gid]:
                self.drop(gid, node)
            self.rebalance(gid)
        while True:
            pair = merge_pair(self.sizes(), self.max_group_size)
            if pair is None:
                return
            self.merge(*pair)


def form(node_ids: Iterable[int], max_group_size: int) -> Plan:
    """Pack ``node_ids`` into balanced groups; every group fetches the
    filter of every outside node, lightest member first."""
    planner = _Planner(Directory(), max_group_size)
    nodes = sorted(node_ids)
    for members in balanced_groups(nodes, max_group_size):
        planner.open_group(members)
    for gid, members in planner.groups.items():
        for home in nodes:
            if home not in members:
                planner.fetch(gid, home)
    return planner.plan


def join(directory: Directory, newcomer: int, max_group_size: int) -> Plan:
    """``newcomer`` joins the smallest group with room, or the new half of
    the fullest group when none has any (Sections 3.1, 3.2)."""
    planner = _Planner(directory, max_group_size)
    if newcomer in planner.node_ids():
        raise ValueError(f"node {newcomer} is already in a group")
    planner.num_nodes += 1
    gid = group_with_room(planner.sizes(), max_group_size)
    if gid is None:
        gid = planner.split(split_victim(planner.sizes()))
    planner.admit(gid, newcomer)
    # The ceil-based offload can leave the newcomer empty when members sit
    # exactly at the target; a rebalance pass evens things out.
    planner.rebalance(gid)
    # Mirror repair: a group born empty from an M = 1 split holds nothing
    # yet — the newcomer fetches the full mirror now.
    for home in planner.node_ids():
        if home not in planner.groups[gid] and home not in planner.placements[gid]:
            planner.fetch(gid, home)
    planner.notify(gid, skip=newcomer)
    # The newcomer's filter goes to one member of every other group
    # (Figure 15's principal saving over HBA).
    for other in planner.groups:
        if other != gid:
            planner.fetch(other, newcomer, "publish")
    return planner.plan


def _depart(directory: Directory, node: int, max_group_size: int, crashed: bool) -> Plan:
    planner = _Planner(directory, max_group_size)
    planner.num_nodes -= 1
    gid = directory.group_of(node)
    alone = len(planner.groups[gid]) == 1
    hosted = planner.hosted(gid, node)
    if alone or crashed:
        for home in hosted:
            planner.drop(gid, home, "lost" if crashed else DROP)
    if alone:
        planner.close_group(gid)
    elif crashed:
        # What the node hosted is gone with it; its peers re-fetch it.
        planner.groups[gid].remove(node)
        del planner.loads[gid][node]
        for home in hosted:
            planner.fetch(gid, home)
    else:
        planner.release(gid, node)
        planner.notify(gid)
    planner.excise(node)
    return planner.plan


def leave(directory: Directory, node: int, max_group_size: int) -> Plan:
    """``node`` departs gracefully: its replicas migrate to its peers (a
    last member's group dissolves), then :meth:`_Planner.excise`."""
    return _depart(directory, node, max_group_size, crashed=False)


def fail(directory: Directory, node: int, max_group_size: int) -> Plan:
    """``node`` crashed: its peers re-fetch what it hosted from the home
    servers' published filters, then :meth:`_Planner.excise`."""
    return _depart(directory, node, max_group_size, crashed=True)
