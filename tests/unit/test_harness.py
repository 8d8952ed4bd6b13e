"""The seeded property harness itself: shrinking, replay and the check."""

import pytest

from tests._harness import check, replay

OPS = [("put", 1), ("del", 2), ("put", 3), ("del", 4), ("put", 5)]


def _fails_on_a_delete(ops):
    return replay(ops, lambda op: "deleted" if op[0] == "del" else None)


def test_a_header_the_run_needs_survives_the_shrink():
    """A script whose run replays nothing without its header (a geometry,
    say) shrinks to the header and the failing op."""

    def run(ops):
        if not ops or ops[0][0] != "geometry":
            return None
        return _fails_on_a_delete(ops[1:])

    header_kept = r"shrunk to 2 ops: \[\('geometry', 64\), \('del', 2\)\]"
    with pytest.raises(pytest.fail.Exception, match=header_kept):
        check(7, [("geometry", 64)] + OPS, run)


def test_replay_names_the_first_failing_step():
    assert _fails_on_a_delete(OPS) == "step 1 ('del', 2): deleted"
    assert _fails_on_a_delete(OPS[::2]) is None


def test_check_fails_with_the_seed_and_the_shrunk_script():
    """A synthetic failure shrinks to its one op (guards against a
    shrinker that silently stops shrinking and reports giant scripts)."""
    check(7, OPS[::2], _fails_on_a_delete)
    with pytest.raises(pytest.fail.Exception) as failed:
        check(7, OPS, _fails_on_a_delete)
    assert str(failed.value).splitlines() == [
        "seed 7: step 1 ('del', 2): deleted",
        "shrunk to 1 ops: [('del', 2)]",
        "step 0 ('del', 2): deleted",
    ]
