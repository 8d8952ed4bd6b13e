"""An L1 probe costs k cells, not N filters.

Counted, not timed (the pattern of ``test_gateway_scaling.py``): under
``sys.settrace`` the number of source lines executed inside ``repro/bloom``
by

- one ``LRUBloomFilterArray.query`` that ends in a unique hit must be
  *equal* for an array holding 4 per-home filters and one holding 200 (the
  parent ANDed the item's probe mask against every filter: one loop
  iteration per home),
- a probe that finds nothing — an evicted item, a never-seen one — must
  never execute more than that, at either size, and
- one ``record`` that evicts must be *equal* at both sizes.

Lines are the unit because the C-level work left on the path is k list
indexings and ANDs of integers as wide as the homes held, dict operations
and one ``bytearray`` index per counter.  Probes are measured warm: the
first hash of a name is memoised and is not the steady state.
"""

import os

import repro.bloom
from repro.bloom.arrays import LRUBloomFilterArray

from tests._linecount import lines_executed

BLOOM_DIR = os.path.dirname(repro.bloom.__file__)
HOME_COUNTS = (4, 200)
ENTRIES = 400


def _bloom_lines(call):
    """Source lines ``call()`` executes in ``repro/bloom/``."""
    return lines_executed(call, BLOOM_DIR)


def _full_array(homes):
    """An array at capacity whose ``ENTRIES`` entries name ``homes`` homes."""
    lru = LRUBloomFilterArray(ENTRIES, filter_bits=1 << 12, num_hashes=6, seed=3)
    for index in range(ENTRIES):
        lru.record(f"/d{index % 13}/f{index}", index % homes)
    assert lru.num_filters == homes and len(lru) == ENTRIES
    return lru


def test_probe_cost_is_independent_of_the_homes_held():
    unique, nothing = [], []
    for homes in HOME_COUNTS:
        lru = _full_array(homes)
        lru.record("/gone", 1)  # evicts the oldest ...
        lru.invalidate("/gone")  # ... and leaves again: hashed, not held
        for item in ("/d7/f150", "/gone", "/never/seen"):
            lru.query(item)  # warm the hash memo
        lookups = []
        unique.append(_bloom_lines(lambda: lookups.append(lru.query("/d7/f150"))))
        assert lookups[0].hits == (150 % homes,) and lookups[0].probes == homes
        for item in ("/gone", "/never/seen"):
            nothing.append(_bloom_lines(lambda: lookups.append(lru.query(item))))
            assert lookups[-1].hits == ()
    assert unique[0] == unique[1] and 0 < unique[0] < 40
    assert max(nothing) <= unique[0]


def _alone(lru, item, home, count):
    """Whether each of ``item``'s cells in ``home``'s filter reads ``count``:
    a counter that crosses zero runs one line more than one that does not,
    and which cells are shared depends on the homes held."""
    counters = lru._filters[home].counters()
    return all(counters[cell] == count for cell in lru._family.cells(item))


def test_evicting_record_cost_is_independent_of_the_homes_held():
    counts = []
    for homes in HOME_COUNTS:
        lru = _full_array(homes)
        victim = next(iter(lru._entries))
        while not _alone(lru, victim, lru.peek(victim), 1):
            lru.record(victim, lru.peek(victim))  # to the MRU end
            victim = next(iter(lru._entries))
        newcomer = next(
            name for name in (f"/new/{n}" for n in range(99)) if _alone(lru, name, 1, 0)
        )
        counts.append(_bloom_lines(lambda: lru.record(newcomer, 1)))
        assert lru.peek(victim) is None and lru.peek(newcomer) == 1
        assert len(lru) == ENTRIES
        lru.check_slices()
    # Fewer lines than the array has entries: no walk over them either.
    assert counts[0] == counts[1] and 0 < counts[0] < ENTRIES
