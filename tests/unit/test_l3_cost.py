"""Counted cost of L2 and L3: flat in N, no first-call rebuild, no history.

Counted, not timed (the pattern of ``test_mutation_scaling.py``): under
``sys.settrace`` the number of source lines ``Group.multicast_query``
executes inside ``repro/core``

- on its first call after a forced replica sync, and after a join, must
  equal the count of the call that follows it — a replica change or a
  membership change leaves nothing to rebuild on the query path;
- must be equal at two membership histories that end in the same shape
  (group sizes and replicas per member), one formed at once and one
  reached through joins and departures;

and, counted by package under all of ``src/repro``, one multicast and one
L2 probe of a stored path whose answer is its home alone must execute the
same lines at N = 20, 80 and 320 servers with M fixed: both AND the k
cells of the cluster's index, and the walk over members is M long, so
nothing on either path is as long as the fleet (an AND of the path's
mask against each filter a group holds, N of them, grows with N).

The first three count ``repro/core`` only: the cell memo of the filter
geometry (``repro/bloom``) is the same work on either call.  The per-member
probe counters cost no ``repro/obs`` line: the multicast adds to each held
child's ``value`` itself.
"""

import os

import pytest

import repro.core
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig

from tests._linecount import REPRO_DIR, lines_executed

CORE = os.path.dirname(repro.core.__file__)
PATHS = tuple(f"/l3/d{i % 5}/f{i}" for i in range(120))
ABSENT = tuple(f"/l3/absent{i}" for i in range(8))


def _lines(call):
    return lines_executed(call, CORE)


def _cluster(servers, seed=11):
    config = GHBAConfig(
        max_group_size=4,
        expected_files_per_mds=64,
        lru_capacity=8,
        lru_filter_bits=64,
        seed=seed,
    )
    cluster = GHBACluster(servers, config, seed=seed)
    cluster.populate(PATHS)
    cluster.synchronize_replicas(force=True)
    return cluster


def _first_and_next(group, path):
    first = _lines(lambda: group.multicast_query(path))
    again = _lines(lambda: group.multicast_query(path))
    return first, again


def test_first_multicast_after_a_forced_sync_costs_what_the_next_does():
    cluster = _cluster(10)
    for group in cluster.groups.values():
        group.multicast_query(PATHS[0])
    for path in (PATHS[3], ABSENT[0]):
        cluster.synchronize_replicas(force=True)
        for group in cluster.groups.values():
            first, again = _first_and_next(group, path)
            assert first == again, (group.group_id, path)


def test_first_multicast_after_a_join_costs_what_the_next_does():
    cluster = _cluster(9)
    for group in cluster.groups.values():
        group.multicast_query(PATHS[0])
    report = cluster.add_server()
    group = cluster.group_of(report.server_id)
    assert group.size > 1
    first, again = _first_and_next(group, PATHS[7])
    assert first == again


def _shape(cluster):
    return sorted(
        (group.size, tuple(sorted(m.theta for m in group.iter_members())))
        for group in cluster.groups.values()
    )


def test_lines_per_multicast_do_not_depend_on_membership_history():
    formed = _cluster(8)
    churned = _cluster(6)
    churned.add_server()
    churned.remove_server(churned.server_ids()[1])
    churned.add_server()
    churned.add_server()
    churned.synchronize_replicas(force=True)
    assert _shape(formed) == _shape(churned)

    def per_multicast(cluster):
        counts = []
        for group in sorted(cluster.groups.values(), key=lambda g: g.size):
            for path in ABSENT:
                group.multicast_query(path)  # warm the cell memo
                lookup = group.multicast_query(path)
                assert lookup.hits == (), (group.group_id, path)
                counts.append(_lines(lambda: group.multicast_query(path)))
        return counts

    assert per_multicast(formed) == per_multicast(churned)


@pytest.fixture(scope="module")
def fleets():
    """One fleet per N, M = 4, the same 120 paths, every filter published."""
    return {servers: _cluster(servers) for servers in (20, 80, 320)}


def _home_alone_probes(cluster):
    """A stored path, its home, an L2 origin that hosts the home's replica
    in another group, and that group: both probes answer the home alone."""
    for path in PATHS:
        home = cluster.home_of(path)
        for group in cluster.groups.values():
            host = group.idbfa.host_of(home)
            if host is None:
                continue
            origin = cluster.servers[host]
            if (
                origin.probe_segment(path).hits == (home,)
                and group.multicast_query(path).hits == (home,)
            ):
                return path, home, origin, group
    raise AssertionError("no path answers its home alone")


def test_l2_and_l3_lines_are_flat_in_the_fleet_size(fleets):
    l2, l3 = [], []
    for servers, cluster in fleets.items():
        path, home, origin, group = _home_alone_probes(cluster)
        assert cluster.num_servers == servers and group.size == 4
        assert origin.theta > servers // 4 - 2
        l2.append(lines_executed(lambda: origin.probe_segment(path), REPRO_DIR, by_package=True))
        l3.append(lines_executed(lambda: group.multicast_query(path), REPRO_DIR, by_package=True))
    assert l2[0] == l2[1] == l2[2], l2
    assert l3[0] == l3[1] == l3[2], l3
    assert set(l3[0]) == {"core", "bloom"}  # members book by `.value += 1`, no obs frame
