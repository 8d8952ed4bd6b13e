"""Differential oracle: the bit-sliced L1 array vs the frozen one that
probes every per-home filter.

ISSUE 22 put the transpose of the per-home counting filters under
``LRUBloomFilterArray`` (``_slices``: per counter cell, which slots'
filters are non-zero there) and answers a probe from k of those instead of
from N filters.  The contract is *observational invisibility*.
``tests/_reference_lru.py`` is a frozen copy of the filter-by-filter class;
this suite replays seeded scripts through both and compares after every op

- the op's own return value — an ``ArrayLookup`` with its hits *in order*
  and its ``probes``, a list of them, a bool, a count;
- ``hits`` / ``misses``, ``len``, ``num_filters``, ``size_bytes()``;
- ``list(_entries.items())`` (recency order) and every home's
  ``counters()``, in ``_filters`` order;
- ``check_slices()``: bit ``s`` of ``_slices[c]`` is ``counters[c] > 0`` of
  the filter in slot ``s``, for every slot and cell.

The geometries are small (64 to 256 cells, 2 or 3 hashes) so that several
filters answering at once — the case whose order the slot map must keep —
is common, and a pile of items that share a counter cell saturates it
(4-bit counters stick at 15) so that a cell outlives its items.  Home ids
are multiples of 997: a slot must not be a server id.

Seeded scripts on ``tests._harness`` (ops carry all their randomness, so
any subsequence replays deterministically).
"""

import random
import re

import pytest

from repro.bloom.arrays import REPLACEMENT_POLICIES, LRUBloomFilterArray
from repro.bloom.hashing import shared_family

from tests._reference_lru import RefLRUBloomFilterArray
from tests._harness import check, replay

SEEDS = range(36)
HASH_SEED = 5

#: (capacity, filter_bits, num_hashes, homes)
GEOMETRIES = [
    (1, 64, 2, 2),
    (64, 64, 2, 4),
    (96, 64, 2, 3),
    (60, 128, 3, 30),
    (120, 256, 3, 200),
    (40, 64, 3, 8),
]


def _pile(filter_bits, num_hashes, size=20):
    """``size`` items of this geometry that all map onto counter cell 0."""
    cells = shared_family(num_hashes, filter_bits, HASH_SEED).cells
    pile, n = [], 0
    while len(pile) < size:
        item = f"/pile/{n}"
        n += 1
        if 0 in cells(item):
            pile.append(item)
    return pile


def _generate_ops(seed, length=300):
    """A reproducible script; every op carries its own randomness."""
    rng = random.Random(seed)
    geometry = GEOMETRIES[seed % len(GEOMETRIES)]
    capacity, filter_bits, num_hashes, homes = geometry
    policy = REPLACEMENT_POLICIES[(seed // 2) % len(REPLACEMENT_POLICIES)]
    ops = [("geometry", (policy, *geometry))]
    home_ids = [997 * h for h in range(homes)]
    # More names than fit (so evicted items are queried again), names
    # never recorded, and the pile.
    names = [f"/n/{i}" for i in range(capacity + capacity // 2 + 4)]
    strangers = [f"/never/{i}" for i in range(12)]
    pile = _pile(filter_bits, num_hashes)

    def item(recorded=False):
        roll = rng.random()
        if roll < 0.10 and not recorded:
            return rng.choice(strangers)
        if roll < 0.25:
            return rng.choice(pile)
        return names[min(int(rng.expovariate(3.0 / len(names))), len(names) - 1)]

    def home():
        # Skewed, so that a few of many homes hold most entries.
        near = home_ids[min(int(rng.expovariate(0.5)), homes - 1)]
        return rng.choice((near, rng.choice(home_ids)))

    # Fill up first: a sparse array answers almost every probe with nothing.
    for name in names[:capacity]:
        ops.append(("record", (name, home())))
    for _ in range(length):
        roll = rng.random()
        if roll < 0.40:
            ops.append(("record", (item(recorded=True), home())))
        elif roll < 0.70:
            ops.append(("query", item()))
        elif roll < 0.76:
            ops.append(("probe_batch", [item() for _ in range(rng.randrange(5))]))
        elif roll < 0.83:
            ops.append(("invalidate", item()))
        elif roll < 0.86:
            ops.append(("invalidate_home", rng.choice(home_ids)))
        elif roll < 0.965:
            ops.append(("touch", item()))
        elif roll < 0.975:
            ops.append(("clear", None))
        else:
            # Raise one cell of one home past saturation, then take some of
            # the pile away again: the cell stays at 15.
            crowded = rng.choice(home_ids)
            for name in pile[: 16 + rng.randrange(4)]:
                ops.append(("record", (name, crowded)))
            for name in rng.sample(pile, 6):
                ops.append(("invalidate", name))
    return ops


def _call(array, op, arg):
    if op == "record":
        return array.record(*arg)
    if op == "clear":
        return array.clear()
    return getattr(array, op)(arg)


class _Mirror:
    """The live array and its frozen twin."""

    def __init__(self, policy, capacity, filter_bits, num_hashes, homes):
        args = (capacity, filter_bits, num_hashes, HASH_SEED, policy)
        self.live = LRUBloomFilterArray(*args)
        self.ref = RefLRUBloomFilterArray(*args)

    def apply(self, op, arg):
        """Apply one op to both sides; a failure string when the two
        return values differ, else None."""
        got, want = _call(self.live, op, arg), _call(self.ref, op, arg)
        if got != want:
            return f"returned {got!r}, reference {want!r}"
        return None

    def check_state(self):
        """Every observable of the pair, compared — run after every op."""
        live, ref = self.live, self.ref
        if (live.hits, live.misses) != (ref.hits, ref.misses):
            return (
                f"hits/misses {(live.hits, live.misses)} "
                f"!= reference {(ref.hits, ref.misses)}"
            )
        if list(live._entries.items()) != list(ref._entries.items()):
            return (
                f"entries {list(live._entries.items())} "
                f"!= reference {list(ref._entries.items())}"
            )
        mine = [(h, f.counters()) for h, f in live._filters.items()]
        theirs = [(h, f.counters()) for h, f in ref._filters.items()]
        if mine != theirs:
            return "per-home counters (or their order) diverged"
        if (len(live), live.num_filters, live.size_bytes()) != (
            len(ref), ref.num_filters, ref.size_bytes()
        ):
            return "len, num_filters or size_bytes diverged"
        try:
            live.check_slices()
        except AssertionError as error:
            return f"check_slices: {error}"
        return None


def _run(ops):
    """Replay ``ops``; return a failure description or ``None``."""
    if not ops or ops[0][0] != "geometry":
        return None  # shrinking dropped the header; nothing to replay
    mirror = _Mirror(*ops[0][1])
    return replay(ops[1:], lambda op: mirror.apply(*op) or mirror.check_state())


@pytest.mark.parametrize("seed", SEEDS)
def test_sliced_array_matches_reference(seed):
    check(seed, _generate_ops(seed), _run)


def test_scripts_reach_the_cases_that_matter():
    """The generator is not vacuous: across the seeds every policy runs,
    and unique hits, several filters answering at once, evictions at
    capacity, re-records to another home, departures of a home that holds
    entries, saturated cells and a slot handed out a second time occur."""
    policies = set()
    unique = several = evictions = rehomed = departures = saturated = reused = 0
    for seed in SEEDS:
        ops = _generate_ops(seed)
        policies.add(ops[0][1][0])
        live = _Mirror(*ops[0][1]).live
        slots_seen = {}
        for op, arg in ops[1:]:
            before = len(live)
            previous = live.peek(arg[0]) if op == "record" else None
            got = _call(live, op, arg)
            if op == "query":
                unique += got.is_unique
                several += len(got.hits) > 1
            elif op == "record":
                evictions += len(live) == before and previous is None
                rehomed += previous is not None and previous != arg[1]
            elif op == "invalidate_home":
                departures += got > 0
            for home, bit in live._slot_bits.items():
                reused += slots_seen.setdefault(bit, home) != home
                slots_seen[bit] = home
        saturated += any(15 in f.counters() for f in live._filters.values())
    assert policies == set(REPLACEMENT_POLICIES)
    assert min(unique, several, evictions, rehomed, departures, reused) > 100
    assert saturated >= 12


def test_oracle_catches_a_slice_left_behind_by_an_eviction(monkeypatch):
    """The harness is not vacuous: an eviction that decrements the
    counters but leaves the victim's bits standing in the slices is
    caught, and shrinks to a short script."""

    def _evict_one(self):
        item = self._pick_victim()
        home_id = self._entries.pop(item)
        self._filters[home_id].discard(item)

    monkeypatch.setattr(LRUBloomFilterArray, "_evict_one", _evict_one)
    with pytest.raises(pytest.fail.Exception) as failed:
        for seed in SEEDS:
            check(seed, _generate_ops(seed), _run)
    report = str(failed.value)
    assert "check_slices" in report.splitlines()[-1]
    # header, two records (the second evicts)
    assert int(re.search(r"shrunk to (\d+) ops", report).group(1)) <= 3
