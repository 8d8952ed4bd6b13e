"""The seeded property harness every script suite shares.

There is no hypothesis in the toolchain, so a suite draws a reproducible
op list from ``random.Random(seed)``.  Ops carry all their randomness, so
any subsequence replays deterministically: :func:`check` replays a
suite's script and, when it fails, reduces it by dropping one op at a
time for as long as the failure still reproduces, then fails the test
with the seed, the failure and the minimal script.
"""

import pytest

from repro.core import checkpoint
from repro.core.group import GroupError
from repro.metadata.attributes import FileMetadata

#: What the invariant checks a step runs raise: such a step fails there,
#: and the script shrinks like any other.
CHECK_ERRORS = (AssertionError, KeyError, GroupError)


def greedy_shrink(ops, still_fails):
    """Minimal still-failing subsequence of ``ops``.

    ``still_fails(candidate)`` replays a candidate and says whether the
    failure reproduced.  A script whose first op is a header (a geometry,
    say) keeps it when a run without it reports no failure.
    """
    current = list(ops)
    shrunk = True
    while shrunk and len(current) > 1:
        shrunk = False
        for index in range(len(current) - 1, -1, -1):
            candidate = current[:index] + current[index + 1:]
            if still_fails(candidate):
                current = candidate
                shrunk = True
                break
    return current


def replay(ops, step):
    """Feed ``ops`` to ``step`` in order; ``"step i <op>: <failure>"`` for
    the first op whose ``step(op)`` returns a failure (or raises one of
    :data:`CHECK_ERRORS`), else None."""
    for index, op in enumerate(ops):
        try:
            failure = step(op)
        except CHECK_ERRORS as error:
            failure = f"{type(error).__name__}: {error}"
        if failure is not None:
            return f"step {index} {op}: {failure}"
    return None


def check(seed, ops, run):
    """Fail the test if ``run(ops)`` reports a failure, with the seed (or
    whatever names the script), the failure, and the shrunk script with
    its own failure.

    Any failure counts while shrinking, a step that raises one of
    :data:`CHECK_ERRORS` included, so the shrunk script may stop at
    another failure than the full one; the report prints both."""
    failure = run(ops)
    if failure is not None:
        shrunk = greedy_shrink(ops, lambda candidate: run(candidate) is not None)
        pytest.fail(
            f"seed {seed}: {failure}\nshrunk to {len(shrunk)} ops: {shrunk}\n"
            f"{run(shrunk)}"
        )


def pick(items, draw):
    """The ``draw``-th share of ``items`` in sorted order, ``draw`` in
    ``[0, 1)``: the choice does not hang on how ``items`` was built."""
    items = sorted(items)
    return items[int(draw * len(items))]


def cluster_step(cluster, op, paths, renamed):
    """Carry out one step of a seeded ``GHBACluster`` script; returns the
    cluster (a checkpoint round trip makes a new one).

    ``op`` is ``(kind, a, b)`` with two draws in ``[0, 1)``.  ``paths`` is
    the suite's seeded tree ``/<root>/d<i>/f<j>``: an insert stores one of
    its paths (a fifth of them a second time) or, one in five, a new name
    under the root; a delete names one of them; a rename moves the
    directory of one to a fresh ``/<root>/r<n>``, and ``renamed`` counts
    the renames so far.  The other kinds are ``sync`` (unforced),
    ``join`` (up to nine servers), ``leave`` with re-homing, ``fail``
    and ``recover`` (a fleet keeps two servers), and ``checkpoint``, a
    round trip that keeps the crashed stores.  A suite whose form of a
    step differs carries that step out itself.
    """
    kind, a, b = op
    ids = cluster.server_ids()
    root = paths[0].rsplit("/", 2)[0]
    if kind == "insert":
        path = pick(paths, a) if b < 0.8 else f"{root}/new{int(a * 40)}"
        if b < 0.2 or cluster.home_of(path) is None:
            cluster.insert_file(FileMetadata(path=path, inode=1), pick(ids, b))
    elif kind == "delete":
        cluster.delete_file(pick(paths, a))
    elif kind == "rename":
        renamed.append(len(renamed))
        directory = pick(paths, a).rsplit("/", 1)[0]
        cluster.rename_subtree(directory, f"{root}/r{len(renamed)}")
    elif kind == "sync":
        cluster.synchronize_replicas()
    elif kind == "join":
        if len(ids) < 9:
            cluster.add_server()
    elif kind in ("leave", "fail"):
        if len(ids) > 2:
            depart = cluster.remove_server if kind == "leave" else cluster.fail_server
            depart(pick(ids, a))
    elif kind == "recover":
        crashed = cluster.crashed_server_ids()
        if crashed:
            cluster.recover_server(pick(crashed, a))
    elif kind == "checkpoint":
        crashed = cluster._crashed_stores
        cluster = checkpoint.restore(checkpoint.snapshot(cluster))
        cluster._crashed_stores.update(crashed)
    else:  # pragma: no cover - generator and steps must stay in sync
        raise ValueError(f"unknown step {kind!r}")
    return cluster
