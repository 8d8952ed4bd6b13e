"""Differential oracle: the store's sorted path index vs the frozen scan.

ISSUE 16 replaced ``for path in store.paths(): if path == prefix or
path.startswith(prefix + "/")`` — a walk of the whole store per rename —
by two bisections of a sorted index that is built by the first subtree
query and maintained by ``put`` / ``remove`` / ``clear`` from then on.
:func:`_scan` is that walk, frozen here; this suite replays seeded op
sequences and requires, after every op, that

- ``paths_under(prefix)`` is the scan's answer in sorted order, for the
  op's own prefix, and
- once built, the index is exactly ``sorted(store.paths())`` — nothing
  stale, nothing twice.

The first query lands at a random point of the sequence, so the lazy
build sees a store with history (overwrites, ``get`` promotions,
removals) and every later op runs against a maintained index.  Names come from an alphabet chosen for how
it *sorts*: ``-``, ``.`` and space order below ``/``, ``0`` is the code
point right above it (the range's open end), and ``é`` is outside ASCII
(once inside a component, once leading it, far above any ASCII bound);
``d.mv`` is the sibling ``fleet_churn``'s own renames put next to ``d/…``,
and a prefix may itself be a stored file.

Seeded scripts on ``tests._harness`` (ops carry all their randomness, so
any subsequence replays deterministically).
"""

import random

import pytest

from repro.metadata.attributes import FileMetadata
from repro.metadata.store import MetadataStore

from tests._harness import check, replay

SEEDS = range(48)

#: One component per way of sorting around ``/`` (0x2F): ``d`` followed
#: by space (0x20), ``-`` (0x2D), ``.`` (0x2E), ``0`` (0x30), ``é``.
COMPONENTS = ("d", "d.mv", "d-1", "d x", "d0", "dé", "éd")


def _scan(store, prefix):
    """The parent's victim search, verbatim but for the sort."""
    return sorted(
        path
        for path in store.paths()
        if path == prefix or path.startswith(prefix + "/")
    )


def _path(rng, max_depth=3):
    depth = rng.randrange(1, max_depth + 1)
    return "/" + "/".join(rng.choice(COMPONENTS) for _ in range(depth))


def _generate_ops(seed, length=140):
    rng = random.Random(seed)
    first_query = rng.randrange(length)
    ops = []
    for step in range(length):
        roll = rng.random()
        if step == first_query or (step > first_query and roll < 0.30):
            # Depth 1-2 so that most prefixes have something below them;
            # "/" asks for the literal "//…" range, as the scan would.
            prefix = "/" if rng.random() < 0.03 else _path(rng, max_depth=2)
            ops.append(("under", prefix))
        elif roll < 0.62:
            ops.append(("put", (_path(rng), rng.randrange(1 << 20))))
        elif roll < 0.78:
            ops.append(("get", _path(rng)))
        elif roll < 0.98:
            ops.append(("remove", _path(rng)))
        else:
            ops.append(("clear", None))
    return ops


def _apply(store, op, arg):
    """Apply one op; a failure string, else None."""
    if op == "put":
        store.put(FileMetadata(path=arg[0], inode=arg[1]))
    elif op == "get":
        store.get(arg)
    elif op == "remove":
        store.remove(arg)
    elif op == "clear":
        store.clear()
    elif op == "under":
        got, want = store.paths_under(arg), _scan(store, arg)
        if got != want:
            return f"paths_under({arg!r}) -> {got}, scan {want}"
    else:  # pragma: no cover - generator and runner must stay in sync
        return f"unknown op {op!r}"
    if store._index is not None and store._index != sorted(store.paths()):
        return f"index {store._index} != sorted store {sorted(store.paths())}"
    return None


def _run(ops):
    store = MetadataStore()
    return replay(ops, lambda op: _apply(store, *op))


@pytest.mark.parametrize("seed", SEEDS)
def test_indexed_subtree_query_matches_the_scan(seed):
    check(seed, _generate_ops(seed), _run)


def test_sequences_reach_the_cases_that_matter():
    """The generator is not vacuous: across the seeds the lazy build sees
    a non-empty store, a prefix is itself a stored file with records
    below it, the ``.mv`` sibling sits beside a non-empty ``d/…``, and the
    index survives a ``clear``."""
    lazy_builds = prefix_is_file = mv_sibling = rebuilt = 0
    for seed in SEEDS:
        store = MetadataStore()
        cleared = False
        for op, arg in _generate_ops(seed):
            built = store._index is not None
            assert _apply(store, op, arg) is None
            if op == "clear":
                cleared = True
            if op != "under":
                continue
            if not built and len(store):
                lazy_builds += 1
                rebuilt += cleared
            answer = store.paths_under(arg)
            prefix_is_file += arg in store and len(answer) > 1
            mv_sibling += (
                len(answer) > 0 and arg + ".mv" in store and arg in ("/d", "/éd/d")
            )
    assert min(lazy_builds, prefix_is_file, mv_sibling, rebuilt) > 0, (
        lazy_builds, prefix_is_file, mv_sibling, rebuilt
    )


def test_subtree_is_the_name_plus_one_half_open_range():
    """The boundary cases, spelled out once."""
    store = MetadataStore()
    names = [
        "/d", "/d/a", "/d/é", "/d/a/b", "/d.mv", "/d.mv/a", "/d-1/a",
        "/d x", "/d0", "/d0/a", "/dé/a", "/c/z",
    ]
    for inode, path in enumerate(names):
        store.put(FileMetadata(path=path, inode=inode))
    assert store.paths_under("/d") == ["/d", "/d/a", "/d/a/b", "/d/é"]
    assert store.paths_under("/d.mv") == ["/d.mv", "/d.mv/a"]
    assert store.paths_under("/d-1") == ["/d-1/a"]
    assert store.paths_under("/d/a/b") == ["/d/a/b"]
    assert store.paths_under("/d/absent") == []
    store.remove("/d")
    store.put(FileMetadata(path="/d/0", inode=99))
    assert store.paths_under("/d") == ["/d/0", "/d/a", "/d/a/b", "/d/é"]


def test_index_is_not_built_until_a_subtree_is_asked_for():
    """A store that never renames pays nothing: no index object exists."""
    store = MetadataStore()
    for inode in range(8):
        store.put(FileMetadata(path=f"/d/f{inode}", inode=inode))
    store.get("/d/f0")
    store.remove("/d/f1")
    assert store._index is None
    assert len(store.paths_under("/d")) == 7
    assert store._index is not None
    store.clear()
    assert store._index is None
