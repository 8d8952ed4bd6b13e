"""Property-based tests for the hash placement/metadata baselines."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.hash_metadata import HashMetadataCluster
from repro.baselines.hash_placement import HashPlacementGroup


class TestHashPlacementProperties:
    @given(
        members=st.sets(
            st.integers(min_value=0, max_value=100), min_size=1, max_size=8
        ),
        replicas=st.sets(
            st.integers(min_value=200, max_value=400), max_size=40
        ),
    )
    @settings(max_examples=50)
    def test_every_replica_lands_on_a_member(self, members, replicas):
        group = HashPlacementGroup(sorted(members))
        group.place_all(sorted(replicas))
        member_set = set(group.members)
        for replica_id in replicas:
            assert group.host_of(replica_id) in member_set

    @given(
        members=st.sets(
            st.integers(min_value=0, max_value=50), min_size=2, max_size=6
        ),
        replicas=st.sets(
            st.integers(min_value=100, max_value=180), min_size=5, max_size=40
        ),
        newcomer=st.integers(min_value=60, max_value=99),
    )
    @settings(max_examples=40)
    def test_join_migration_count_matches_reassignments(
        self, members, replicas, newcomer
    ):
        group = HashPlacementGroup(sorted(members))
        group.place_all(sorted(replicas))
        before = {r: group.host_of(r) for r in replicas}
        migrated = group.add_member(newcomer)
        moved = sum(
            1 for r in replicas if group.host_of(r) != before[r]
        )
        assert migrated == moved
        # Placement stays consistent with the hash function.
        for r in replicas:
            assert group.host_of(r) == group.target_of(r)

    @given(
        replicas=st.sets(
            st.integers(min_value=100, max_value=400),
            min_size=30,
            max_size=80,
        ),
    )
    @settings(max_examples=20)
    def test_hashing_spreads_load(self, replicas):
        group = HashPlacementGroup(list(range(4)))
        group.place_all(sorted(replicas))
        counts = [len(group.replicas_on(m)) for m in group.members]
        assert max(counts) <= len(replicas)  # sanity
        assert min(counts) >= 0
        # No member hosts everything (overwhelming probability).
        assert max(counts) < len(replicas)


class TestHashMetadataProperties:
    @given(
        num_servers=st.integers(min_value=1, max_value=10),
        paths=st.sets(
            st.text(alphabet="abcdef", min_size=1, max_size=6).map(
                lambda s: "/h/" + s
            ),
            max_size=40,
        ),
        seed=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=40)
    def test_lookup_always_finds_inserted(self, num_servers, paths, seed):
        cluster = HashMetadataCluster(num_servers, seed=seed)
        cluster.populate(sorted(paths))
        for path in paths:
            meta = cluster.lookup(path)
            assert meta is not None and meta.path == path

    @given(
        paths=st.sets(
            st.text(alphabet="abc", min_size=1, max_size=5).map(
                lambda s: "/h/" + s
            ),
            min_size=1,
            max_size=30,
        ),
        growth=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=30)
    def test_resizes_never_lose_records(self, paths, growth, seed):
        cluster = HashMetadataCluster(3, seed=seed)
        cluster.populate(sorted(paths))
        for _ in range(growth):
            cluster.add_server()
        cluster.remove_server()
        assert cluster.file_count == len(paths)
        for path in paths:
            assert cluster.lookup(path) is not None
