"""Property-based tests for the reconfiguration plan, as a value.

``repro.core.reconfiguration`` is pure: directories in, directories and
steps out.  So the structural claims both drivers rely on are checked
here without a cluster: whatever script of joins, departures and crashes
is planned, the directory afterwards is well formed, every step stays
inside its group, and the steps alone explain the change.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reconfiguration import (
    CHARGES,
    DROP,
    FETCH,
    MOVE,
    NOTIFY,
    fail,
    form,
    imbalance,
    join,
    leave,
    merge_pair,
)

#: A script: join, or leave/fail by victim index.
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["join", "leave", "fail"]),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=14,
)
shapes = dict(
    initial=st.integers(min_value=1, max_value=14),
    max_group=st.integers(min_value=1, max_value=6),
)


def _plans(initial, max_group, ops):
    """Yield ``(directory before, plan)`` for formation and every op."""
    plan = form(range(initial), max_group)
    yield None, plan
    next_id = initial
    for op, index in ops:
        before = plan.directory
        nodes = sorted(n for members in before.groups.values() for n in members)
        if op == "join":
            plan = join(before, next_id, max_group)
            next_id += 1
        elif len(nodes) > 1:
            planner = leave if op == "leave" else fail
            plan = planner(before, nodes[index % len(nodes)], max_group)
        else:
            continue
        yield before, plan


def _replicas(directory):
    """The directory flattened to ``{(host, home)}``."""
    if directory is None:
        return set()
    return {
        (host, home)
        for hosts in directory.placements.values()
        for home, host in hosts.items()
    }


class TestDirectoryAfterwards:
    @given(ops=ops_strategy, **shapes)
    @settings(max_examples=120, deadline=None)
    def test_well_formed_after_any_script(self, initial, max_group, ops):
        """Every node in exactly one group, sizes within M, each group's
        hosts its own members and its replicas all outside nodes, replica
        imbalance at most one — ``Directory.check``, and by hand."""
        for _, plan in _plans(initial, max_group, ops):
            directory = plan.directory
            directory.check(max_group)
            nodes = [n for members in directory.groups.values() for n in members]
            assert len(nodes) == len(set(nodes))
            for gid, members in directory.groups.items():
                assert members == sorted(members)
                assert 1 <= len(members) <= max_group
                hosts = directory.placements[gid]
                assert set(hosts) == set(nodes) - set(members)
                assert set(hosts.values()) <= set(members)
                assert imbalance(directory.loads(gid).values()) <= 1

    @given(ops=ops_strategy, **shapes)
    @settings(max_examples=60, deadline=None)
    def test_no_two_groups_could_still_merge(self, initial, max_group, ops):
        for before, plan in _plans(initial, max_group, ops):
            if before is None or plan.new_group_id is not None:
                continue  # formation and splits make groups; departures merge
            sizes = {g: len(m) for g, m in plan.directory.groups.items()}
            if any(s.kind == DROP for s in plan.steps):  # a departure
                assert merge_pair(sizes, max_group) is None

    @given(initial=st.integers(min_value=1, max_value=30), max_group=st.integers(1, 8))
    def test_formation_is_balanced(self, initial, max_group):
        directory = form(range(initial), max_group).directory
        sizes = [len(members) for members in directory.groups.values()]
        assert len(sizes) == -(-initial // max_group)
        assert max(sizes) - min(sizes) <= 1
        assert sorted(directory.groups) == list(range(directory.next_group_id))


class TestSteps:
    @given(ops=ops_strategy, **shapes)
    @settings(max_examples=120, deadline=None)
    def test_steps_stay_inside_their_group(self, initial, max_group, ops):
        """No step names a host outside its group (as it was or as it
        becomes), and a fetch is shipped by the home itself."""
        for before, plan in _plans(initial, max_group, ops):
            for step in plan.steps:
                members = set(plan.directory.groups.get(step.group, ()))
                if before is not None:
                    members |= set(before.groups.get(step.group, ()))
                assert step.row in CHARGES
                if step.kind == MOVE:
                    assert {step.src, step.dst} <= members
                elif step.kind == FETCH:
                    assert step.src == step.home != step.dst in members
                elif step.kind == DROP:
                    assert step.src in members and step.dst is None
                else:
                    assert step.kind == NOTIFY and step.src in members

    @given(ops=ops_strategy, **shapes)
    @settings(max_examples=120, deadline=None)
    def test_applying_the_steps_yields_the_new_directory(
        self, initial, max_group, ops
    ):
        """Replayed over the old ``{(host, home)}`` set — a move takes from
        ``src`` what it gives ``dst``, a drop takes what is there — the
        steps end at the new directory's placements, nothing else."""
        for before, plan in _plans(initial, max_group, ops):
            held = _replicas(before)
            for step in plan.steps:
                if step.kind in (MOVE, DROP):
                    holder = step.src
                    assert (holder, step.home) in held
                    held.remove((holder, step.home))
                if step.kind in (MOVE, FETCH):
                    assert (step.dst, step.home) not in held
                    held.add((step.dst, step.home))
            assert held == _replicas(plan.directory)

    @given(ops=ops_strategy, **shapes)
    @settings(max_examples=60, deadline=None)
    def test_plans_are_pure(self, initial, max_group, ops):
        """Planning never touches the directory it was given, and the
        same question gets the same answer."""
        for before, plan in _plans(initial, max_group, ops):
            if before is None:
                continue
            frozen = repr(before)
            again = join(before, 10_000, max_group)
            assert repr(before) == frozen
            assert again == join(before, 10_000, max_group)
