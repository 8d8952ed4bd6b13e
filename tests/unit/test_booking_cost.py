"""Counted cost of booking a lookup's metrics: no registry frame but the
latency histogram's.

The walk, the probes and the multicast hold their metric children (or a
family's ``by_value`` map) and add to ``child.value`` themselves, so
under ``sys.settrace`` a warm L1-hit ``GHBACluster.query`` executes in
``repro/obs`` exactly the lines of one ``HistogramChild.observe``, and an
L2 probe or an L3 multicast executes none.  Counted, not timed: exact on
any host with the same interpreter.
"""

import pytest

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.query import QueryLevel

from tests._linecount import REPRO_DIR, lines_executed

PATHS = tuple(f"/book/d{i % 5}/f{i}" for i in range(120))


@pytest.fixture
def cluster():
    config = GHBAConfig(
        max_group_size=4,
        expected_files_per_mds=64,
        lru_capacity=8,
        lru_filter_bits=64,
        seed=5,
    )
    cluster = GHBACluster(20, config, seed=5)
    cluster.populate(PATHS)
    cluster.synchronize_replicas(force=True)
    return cluster


def _warm_l1_hit(cluster):
    """A path and an origin whose L1 answers it, warmed twice so the
    latency histogram's minimum and maximum already hold its latency."""
    path, origin = PATHS[0], 0
    cluster.query(path, origin)
    for _ in range(2):
        result = cluster.query(path, origin)
    assert result.level is QueryLevel.L1
    return path, origin, result


def test_a_warm_l1_hit_books_only_the_latency_observation(cluster):
    path, origin, result = _warm_l1_hit(cluster)
    before = cluster.metrics.snapshot()
    packages = lines_executed(lambda: cluster.query(path, origin), REPRO_DIR, by_package=True)
    # One more observation of the same latency takes the same lines.
    latency = cluster.latency
    observe = lines_executed(lambda: latency.observe(result.latency_ms), REPRO_DIR, by_package=True)
    assert set(observe) == {"obs"}
    assert packages["obs"] == observe["obs"]
    assert set(packages) <= {"core", "bloom", "obs", "metadata", "sim"}
    # Every counter the query books still moved by exactly one query.
    after = cluster.metrics.snapshot()
    queries = "ghba_queries_total"
    assert after[queries]["series"]["L1"] == before[queries]["series"]["L1"] + 1
    probes = after["ghba_server_probes_total"]["series"]
    assert probes[f"{origin}|l1"] == before["ghba_server_probes_total"]["series"][f"{origin}|l1"] + 1


def test_l2_and_l3_probes_book_without_an_obs_line(cluster):
    path = PATHS[1]
    origin = cluster.servers[3]
    group = cluster.group_of(3)
    l2 = lines_executed(lambda: origin.probe_segment(path), REPRO_DIR, by_package=True)
    l3 = lines_executed(lambda: group.multicast_query(path), REPRO_DIR, by_package=True)
    assert "obs" not in l2 and "obs" not in l3
    assert l2 and l3
    series = cluster.metrics.get("ghba_server_probes_total").as_dict()
    # The L2 probe and the multicast both booked origin 3's L2 row.
    assert series["3|l2"] == 2
    for member in group.member_ids():
        if member != 3:
            assert series[f"{member}|l2"] == 1
