"""Differential oracle: packed bloom substrate vs the frozen per-bit one.

The ISSUE 9 rebuild moved every filter in ``repro.bloom`` onto packed
big-int bitsets with memoized probe masks.  The refactor's contract is
*observational invisibility*: for any op sequence, the new substrate must
agree with the old per-bit implementation bit-for-bit — query answers,
popcounts, algebra results, counter arrays, item counts, and the
serialized wire form.  ``tests/_reference_bloom.py`` is a frozen copy of
the pre-packed implementation; this suite replays random op sequences
through both and diffs everything after every step.

Seeded scripts on ``tests._harness``: ops carry all their randomness, so
any subsequence replays deterministically, and a failure is first
reduced to a minimal still-failing script.  The geometry header stays in
it, since a script without one replays nothing.

Covered per sequence:

- plain filter ``add`` / ``query`` / ``contains_many`` / ``clear``;
- the Section 3.4 algebra (union / intersection / XOR) and the
  XOR-threshold update rule (``bit_difference`` / ``needs_update``);
- counting filter ``add`` / ``discard`` / ``query`` / ``count_estimate``
  / ``to_bloom_filter`` with counter saturation (1-, 2- and 4-bit
  counters) and the on-demand packed form ``nonzero_value``;
- serialization: ``to_bytes`` byte-identical to the reference wire form,
  ``from_bytes`` round trips, and the zlib transfer path of
  ``repro.bloom.compressed``.
"""

import random

import pytest

from repro.bloom.algebra import (
    bit_difference,
    bloom_intersection,
    bloom_union,
    bloom_xor,
    needs_update,
)
from repro.bloom.bloom_filter import BloomFilter, popcount
from repro.bloom.compressed import compress_filter, decompress_filter
from repro.bloom import counting
from repro.bloom.counting import CountingBloomFilter

from tests._reference_bloom import (
    RefBloomFilter,
    RefCountingBloomFilter,
    RefHashFamily,
)
from tests._harness import check, replay

SEEDS = range(30)

#: Geometries sampled per seed.  Deliberately includes word-boundary and
#: non-byte-aligned sizes: 61/64/65 straddle one machine word, 509 is a
#: prime that is not a multiple of 8.
GEOMETRIES = [
    (61, 3),
    (64, 4),
    (65, 2),
    (128, 1),
    (509, 5),
    (1024, 8),
]
HASH_SEEDS = [-2, 0, 1, 7, 12345]
COUNTER_BITS = [1, 2, 4]


def _packed(ref):
    """The reference filter's per-bit ``bytearray`` as the live form's int."""
    return int.from_bytes(ref.bits.to_bytes(), "little")


def _gen_item(rng, serial):
    """Mixed item types — the hash family accepts str, bytes and int."""
    roll = rng.random()
    if roll < 0.6:
        return f"/d{rng.randrange(6)}/f{serial}"
    if roll < 0.8:
        return bytes([rng.randrange(256) for _ in range(rng.randrange(0, 9))])
    return rng.randrange(-(1 << 40), 1 << 40)


def _generate_ops(seed, length=90):
    """A reproducible op list; every op carries its own randomness."""
    rng = random.Random(seed)
    num_bits, num_hashes = GEOMETRIES[rng.randrange(len(GEOMETRIES))]
    hash_seed = HASH_SEEDS[rng.randrange(len(HASH_SEEDS))]
    counter_bits = COUNTER_BITS[rng.randrange(len(COUNTER_BITS))]
    header = ("geometry", (num_bits, num_hashes, hash_seed, counter_bits))

    inserted = []
    ops = [header]
    for serial in range(length):
        item = (
            rng.choice(inserted)
            if inserted and rng.random() < 0.4
            else _gen_item(rng, serial)
        )
        roll = rng.random()
        if roll < 0.22:
            ops.append(("add", (rng.randrange(2), item)))
            inserted.append(item)
        elif roll < 0.40:
            ops.append(("query", (rng.randrange(2), item)))
        elif roll < 0.50:
            ops.append(("cadd", item))
            inserted.append(item)
        elif roll < 0.58:
            ops.append(("cdiscard", item))
        elif roll < 0.64:
            ops.append(("cquery", item))
        elif roll < 0.68:
            ops.append(("cestimate", item))
        elif roll < 0.78:
            kind = ("union", "intersect", "xor")[rng.randrange(3)]
            dest = rng.choice((None, 0, 1))
            ops.append(("algebra", (kind, dest)))
        elif roll < 0.84:
            ops.append(("threshold", rng.randrange(0, 12)))
        elif roll < 0.88:
            batch = [
                rng.choice(inserted) if inserted and rng.random() < 0.5
                else _gen_item(rng, serial * 100 + extra)
                for extra in range(rng.randrange(1, 6))
            ]
            ops.append(("batch", (rng.randrange(2), batch)))
        elif roll < 0.93:
            ops.append(("serialize", rng.randrange(2)))
        elif roll < 0.96:
            ops.append(("cbloom", None))
        elif roll < 0.98:
            ops.append(("clear", rng.randrange(2)))
        else:
            ops.append(("cclear", None))
    return ops


class _Mirror:
    """The live pair + counting filter and their reference twins."""

    def __init__(self, num_bits, num_hashes, hash_seed, counter_bits):
        self.live = [
            BloomFilter(num_bits, num_hashes, hash_seed) for _ in range(2)
        ]
        self.ref = [
            RefBloomFilter(num_bits, num_hashes, hash_seed) for _ in range(2)
        ]
        # The live counter width is a module constant: build this one at
        # the script's width, as the reference is.
        width, counting.COUNTER_BITS = counting.COUNTER_BITS, counter_bits
        try:
            self.clive = CountingBloomFilter(num_bits, num_hashes, hash_seed)
        finally:
            counting.COUNTER_BITS = width
        self.cref = RefCountingBloomFilter(
            num_bits, num_hashes, hash_seed, counter_bits=counter_bits
        )
        self.ref_family = RefHashFamily(num_hashes, num_bits, hash_seed)

    def check_state(self):
        """Full bit-for-bit state diff — run after every op."""
        for which in range(2):
            live, ref = self.live[which], self.ref[which]
            if live.bits != _packed(ref):
                return f"filter {which} bit vectors diverged"
            if popcount(live.bits) != ref.bits.popcount():
                return f"filter {which} popcounts diverged"
            if live.num_items != ref.num_items:
                return (
                    f"filter {which} num_items {live.num_items} "
                    f"!= ref {ref.num_items}"
                )
        if self.clive.counters() != self.cref.counters():
            return "counting filter counter arrays diverged"
        if self.clive.num_items != self.cref.num_items:
            return (
                f"counting num_items {self.clive.num_items} "
                f"!= ref {self.cref.num_items}"
            )
        # The packed form must agree with the per-counter truth.
        nonzero = self.clive.nonzero_value
        for index, count in enumerate(self.clive.counters()):
            if bool(nonzero & (1 << index)) != (count > 0):
                return f"nonzero_value wrong at counter {index}"
        if nonzero >> self.clive.num_counters:
            return "nonzero_value has bits beyond num_counters"
        return None


def _apply(mirror, op, arg):
    """Apply one op to both sides; return a failure string or None."""
    if op == "add":
        which, item = arg
        live_indices = mirror.live[which].hash_family.indices(item)
        ref_indices = mirror.ref_family.indices(item)
        if live_indices != ref_indices:
            return f"hash indices diverged for {item!r}"
        mirror.live[which].add(item)
        mirror.ref[which].add(item)
    elif op == "query":
        which, item = arg
        got = mirror.live[which].query(item)
        want = mirror.ref[which].query(item)
        if got != want:
            return f"query({item!r}) -> {got}, ref says {want}"
        if (item in mirror.live[which]) != want:
            return f"__contains__({item!r}) disagrees with query"
    elif op == "cadd":
        mirror.clive.add(arg)
        mirror.cref.add(arg)
    elif op == "cdiscard":
        got = mirror.clive.discard(arg)
        want = mirror.cref.discard(arg)
        if got != want:
            return f"counting discard({arg!r}) -> {got}, ref says {want}"
    elif op == "cquery":
        got = mirror.clive.query(arg)
        want = mirror.cref.query(arg)
        if got != want:
            return f"counting query({arg!r}) -> {got}, ref says {want}"
    elif op == "cestimate":
        got = mirror.clive.count_estimate(arg)
        want = mirror.cref.count_estimate(arg)
        if got != want:
            return f"count_estimate({arg!r}) -> {got}, ref says {want}"
    elif op == "algebra":
        kind, dest = arg
        live_fn = {
            "union": bloom_union,
            "intersect": bloom_intersection,
            "xor": bloom_xor,
        }[kind]
        ref_fn = {
            "union": RefBloomFilter.union,
            "intersect": RefBloomFilter.intersection,
            "xor": RefBloomFilter.xor,
        }[kind]
        live_out = live_fn(mirror.live[0], mirror.live[1])
        ref_out = ref_fn(mirror.ref[0], mirror.ref[1])
        if live_out.bits != _packed(ref_out):
            return f"{kind} bit vectors diverged"
        if live_out.num_items != ref_out.num_items:
            return (
                f"{kind} num_items {live_out.num_items} "
                f"!= ref {ref_out.num_items}"
            )
        if dest is not None:
            mirror.live[dest] = live_out
            mirror.ref[dest] = ref_out
    elif op == "threshold":
        got = bit_difference(mirror.live[0], mirror.live[1])
        want = mirror.ref[0].bits.hamming_distance(mirror.ref[1].bits)
        if got != want:
            return f"bit_difference -> {got}, ref hamming {want}"
        if needs_update(mirror.live[0], mirror.live[1], arg) != (want > arg):
            return f"needs_update(threshold={arg}) disagrees with ref"
    elif op == "batch":
        which, items = arg
        got = mirror.live[which].contains_many(items)
        want = [mirror.ref[which].query(item) for item in items]
        if got != want:
            return f"contains_many mismatch: {got} vs ref {want}"
    elif op == "serialize":
        live = mirror.live[arg]
        raw = live.to_bytes()
        if raw != mirror.ref[arg].to_bytes():
            return f"filter {arg} wire bytes differ from reference"
        restored = BloomFilter.from_bytes(raw)
        if restored != live or restored.num_items != live.num_items:
            return f"filter {arg} from_bytes round trip lost state"
        thawed = decompress_filter(compress_filter(live))
        if thawed != live or thawed.num_items != live.num_items:
            return f"filter {arg} compressed round trip lost state"
    elif op == "cbloom":
        live_proj = mirror.clive.to_bloom_filter()
        ref_proj = mirror.cref.to_bloom_filter()
        if live_proj.bits != _packed(ref_proj):
            return "to_bloom_filter projections diverged"
        if live_proj.num_items != ref_proj.num_items:
            return "to_bloom_filter num_items diverged"
    elif op == "clear":
        mirror.live[arg].clear()
        mirror.ref[arg].clear()
    elif op == "cclear":
        mirror.clive.clear()
        mirror.cref.clear()
    else:  # pragma: no cover - generator and runner must stay in sync
        return f"unknown op {op!r}"
    return None


def _run(ops):
    """Replay ``ops``; return a failure description or ``None``."""
    if not ops or ops[0][0] != "geometry":
        return None  # shrinking dropped the header; nothing to replay
    mirror = _Mirror(*ops[0][1])
    return replay(
        ops[1:], lambda op: _apply(mirror, *op) or mirror.check_state()
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_packed_substrate_matches_reference(seed):
    check(seed, _generate_ops(seed), _run)


def test_remove_raises_in_lockstep():
    """KeyError parity: removing an absent item fails on both sides."""
    live = CountingBloomFilter(128, 3, seed=5)
    ref = RefCountingBloomFilter(128, 3, seed=5)
    for filt in (live, ref):
        filt.add("/present")
    with pytest.raises(KeyError):
        live.remove("/definitely-absent")
    with pytest.raises(KeyError):
        ref.remove("/definitely-absent")
    live.remove("/present")
    ref.remove("/present")
    assert live.counters() == ref.counters()
