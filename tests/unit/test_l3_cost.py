"""Counted cost of the L3 multicast: no first-call rebuild, no history.

Counted, not timed (the pattern of ``test_mutation_scaling.py``): under
``sys.settrace`` the number of source lines ``Group.multicast_query``
executes inside ``repro/core``

- on its first call after a forced replica sync, and after a join, must
  equal the count of the call that follows it — a replica change or a
  membership change leaves nothing to rebuild on the query path;
- must be equal at two membership histories that end in the same shape
  (group sizes and replicas per member), one formed at once and one
  reached through joins and departures.

Lines under ``repro/core`` only: the mask memo (``repro/bloom``) and the
probe counters (``repro/obs``) are the same work on either call.
"""

import os

import repro.core
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig

from tests._linecount import lines_executed

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
                group.multicast_query(path)  # warm the mask memo
                lookup = group.multicast_query(path)
                assert lookup.hits == (), (group.group_id, path)
                counts.append(_lines(lambda: group.multicast_query(path)))
        return counts

    assert per_multicast(formed) == per_multicast(churned)
