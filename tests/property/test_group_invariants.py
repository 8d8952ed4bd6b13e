"""Property-based tests: cluster invariants under arbitrary reconfiguration.

The paper's correctness hinges on one structural invariant — every group
holds exactly one replica of every outside MDS (the "global mirror image").
These tests drive random join/leave/fail sequences and assert the invariant
plus query correctness after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.metadata.attributes import FileMetadata


def tiny_config(max_group_size: int) -> GHBAConfig:
    return GHBAConfig(
        max_group_size=max_group_size,
        expected_files_per_mds=64,
        lru_capacity=8,
        lru_filter_bits=64,
        seed=1,
    )


#: A reconfiguration script: add, or remove/fail by victim index.
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "fail"]),
        st.integers(min_value=0, max_value=30),
    ),
    max_size=12,
)


class TestReconfigurationInvariants:
    @given(
        initial=st.integers(min_value=2, max_value=12),
        max_group=st.integers(min_value=2, max_value=5),
        ops=ops_strategy,
    )
    @settings(max_examples=40, deadline=None)
    def test_mirror_invariant_survives_any_script(self, initial, max_group, ops):
        cluster = GHBACluster(initial, tiny_config(max_group), seed=3)
        cluster.check_invariants()
        for op, victim_index in ops:
            if op == "add":
                cluster.add_server()
            elif cluster.num_servers > 1:
                ids = cluster.server_ids()
                victim = ids[victim_index % len(ids)]
                if op == "remove":
                    cluster.remove_server(victim)
                else:
                    cluster.fail_server(victim)
            cluster.check_invariants()

    @given(
        max_group=st.integers(min_value=2, max_value=4),
        ops=ops_strategy,
    )
    @settings(max_examples=25, deadline=None)
    def test_graceful_removal_never_loses_files(self, max_group, ops):
        """With graceful removals (re-homing), every file stays findable."""
        cluster = GHBACluster(6, tiny_config(max_group), seed=5)
        paths = [f"/inv/f{i}" for i in range(30)]
        cluster.populate(paths)
        cluster.synchronize_replicas(force=True)
        for op, victim_index in ops:
            if op == "add":
                cluster.add_server()
            elif op == "remove" and cluster.num_servers > 1:
                ids = cluster.server_ids()
                cluster.remove_server(ids[victim_index % len(ids)])
            # ("fail" excluded: crash-failures legitimately lose files)
            cluster.synchronize_replicas(force=True)
        for path in paths:
            result = cluster.query(path)
            assert result.found, path
            assert result.home_id == cluster.home_of(path)

    @given(
        initial=st.integers(min_value=2, max_value=10),
        max_group=st.integers(min_value=2, max_value=5),
        num_adds=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_group_sizes_bounded_and_merged(self, initial, max_group, num_adds):
        """No group exceeds M, and no two groups could merge further."""
        cluster = GHBACluster(initial, tiny_config(max_group), seed=7)
        for _ in range(num_adds):
            cluster.add_server()
        sizes = sorted(g.size for g in cluster.groups.values())
        assert all(size <= max_group for size in sizes)
        if len(sizes) >= 2:
            # The merge rule: the two smallest groups must not fit together.
            assert sizes[0] + sizes[1] > max_group

    @given(
        ops=ops_strategy,
        max_group=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_replica_balance_within_every_group(self, ops, max_group):
        cluster = GHBACluster(8, tiny_config(max_group), seed=9)
        for op, victim_index in ops:
            if op == "add":
                cluster.add_server()
            elif cluster.num_servers > 1:
                ids = cluster.server_ids()
                victim = ids[victim_index % len(ids)]
                if op == "remove":
                    cluster.remove_server(victim)
                else:
                    cluster.fail_server(victim)
        for group in cluster.groups.values():
            # Light-weight migration keeps members within one replica of
            # each other (a merge rebalances too, since ISSUE 17).
            assert group.load_imbalance() <= 1
