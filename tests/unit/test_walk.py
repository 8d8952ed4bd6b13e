"""``repro.core.walk.walk`` against a scripted executor: every branch of the
L1 -> L4 decision sequence, by the exact calls it makes.

The fake executor answers each probe from a script and records what it was
asked, so a case reads as the step list of one lookup.  ``ZERO`` / ``MANY``
escalate without a forward; ``HIT`` is a unique hit the target confirms,
``STALE`` a unique hit the target refutes (or whose forward was lost — the
walk cannot tell and must not care).
"""

import ast
import itertools
from pathlib import Path

import pytest

from repro.core import walk as walk_module
from repro.core.query import QueryLevel
from repro.core.walk import L1, L2, L3, L4, NEGATIVE, walk

ZERO, HIT, STALE, MANY = "zero", "hit", "stale", "many"
OUTCOMES = (ZERO, HIT, STALE, MANY)
#: The MDS each level's unique hit names, so a call shows which hit it served.
TARGET = {"l1": 11, "l2": 22, "l3": 33}
LEVEL_OF = {mds: level for level, mds in TARGET.items()}


class Scripted:
    """Executor whose probes answer from ``script`` and log every call."""

    def __init__(self, l1=ZERO, l2=ZERO, l3=ZERO, l4=None, peers=True):
        self.script = {"l1": l1, "l2": l2, "l3": l3}
        self.l4 = l4
        self._peers = peers
        self.calls = []

    def _hits(self, level):
        outcome = self.script[level]
        if outcome == ZERO:
            return []
        if outcome == MANY:
            return [TARGET[level], 99]
        return [TARGET[level]]

    def probe_lru(self):
        self.calls.append("probe_lru")
        return self._hits("l1")

    def forget_lru(self):
        self.calls.append("forget_lru")

    def probe_segment(self):
        self.calls.append("probe_segment")
        return self._hits("l2")

    @property
    def peers(self):
        self.calls.append("peers")
        return self._peers

    def multicast(self):
        self.calls.append("multicast")
        return self._hits("l3")

    def forward(self, target):
        self.calls.append(("forward", target))
        return self.script[LEVEL_OF[target]] == HIT

    def broadcast(self):
        self.calls.append("broadcast")
        return self.l4


F1, F2, F3 = (("forward", TARGET[level]) for level in ("l1", "l2", "l3"))

#: (script, expected answer, expected calls) — the step list of the lookup.
CASES = [
    # Answered at L1: one probe, one forward, nothing else is touched.
    (dict(l1=HIT), (L1, 11, 0), ["probe_lru", F1]),
    # A refuted L1 entry is forgotten before L2 is probed.
    (
        dict(l1=STALE, l2=HIT),
        (L2, 22, 1),
        ["probe_lru", F1, "forget_lru", "probe_segment", F2],
    ),
    # Zero or several L1 hits escalate without a forward (and forget nothing).
    (dict(l1=ZERO, l2=HIT), (L2, 22, 0), ["probe_lru", "probe_segment", F2]),
    (dict(l1=MANY, l2=HIT), (L2, 22, 0), ["probe_lru", "probe_segment", F2]),
    # L3 is asked only after L2 could not settle it, and only with peers.
    (
        dict(l2=MANY, l3=HIT),
        (L3, 33, 0),
        ["probe_lru", "probe_segment", "peers", "multicast", F3],
    ),
    (
        dict(l2=STALE, l3=HIT),
        (L3, 33, 1),
        ["probe_lru", "probe_segment", F2, "peers", "multicast", F3],
    ),
    # A group of one has no L3: straight from L2 to the broadcast.
    (
        dict(l2=MANY, l3=HIT, l4=7, peers=False),
        (L4, 7, 0),
        ["probe_lru", "probe_segment", "peers", "broadcast"],
    ),
    # L4 finds it, or the NEGATIVE is certain.
    (
        dict(l3=MANY, l4=7),
        (L4, 7, 0),
        ["probe_lru", "probe_segment", "peers", "multicast", "broadcast"],
    ),
    (
        dict(),
        (NEGATIVE, None, 0),
        ["probe_lru", "probe_segment", "peers", "multicast", "broadcast"],
    ),
    # Refuted at every level: three false forwards, then the broadcast.
    (
        dict(l1=STALE, l2=STALE, l3=STALE),
        (NEGATIVE, None, 3),
        [
            "probe_lru", F1, "forget_lru", "probe_segment", F2,
            "peers", "multicast", F3, "broadcast",
        ],
    ),
    (
        dict(l1=STALE, l2=STALE, l3=STALE, l4=5, peers=False),
        (L4, 5, 2),
        ["probe_lru", F1, "forget_lru", "probe_segment", F2, "peers", "broadcast"],
    ),
]


@pytest.mark.parametrize("script, answer, calls", CASES)
def test_step_list(script, answer, calls):
    x = Scripted(**script)
    assert walk(x) == answer
    assert x.calls == calls


def _expected(l1, l2, l3, l4, peers):
    """The contract, spelled as data: per level (asked?, outcome, its calls)."""
    calls, false_forwards = [], 0
    for level, outcome, probe, forward in (
        (L1, l1, ["probe_lru"], F1),
        (L2, l2, ["probe_segment"], F2),
        (L3, l3, ["peers", "multicast"] if peers else ["peers"], F3),
    ):
        calls += probe
        if level == L3 and not peers:
            break
        if outcome in (HIT, STALE):
            calls.append(forward)
            if outcome == HIT:
                return (level, forward[1], false_forwards), calls
            false_forwards += 1
            if level == L1:
                calls.append("forget_lru")
    calls.append("broadcast")
    return (NEGATIVE if l4 is None else L4, l4, false_forwards), calls


def test_every_combination_of_outcomes():
    """4 x 4 x 4 level outcomes x L4 found / not x peers on / off."""
    for l1, l2, l3, l4, peers in itertools.product(
        OUTCOMES, OUTCOMES, OUTCOMES, (None, 4), (True, False)
    ):
        x = Scripted(l1, l2, l3, l4, peers)
        answer, calls = _expected(l1, l2, l3, l4, peers)
        assert walk(x) == answer, (l1, l2, l3, l4, peers)
        assert x.calls == calls, (l1, l2, l3, l4, peers)


def test_levels_are_query_levels_numbers():
    assert [QueryLevel(n) for n in (L1, L2, L3, L4, NEGATIVE)] == list(QueryLevel)


def test_walk_imports_nothing_of_repro():
    """The shared function cannot learn which driver calls it: it imports
    nothing (so nothing of ``repro``) and ``walk`` takes the executor only."""
    tree = ast.parse(Path(walk_module.__file__).read_text(encoding="utf-8"))
    imports = [
        node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports == []
    (function,) = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    assert [arg.arg for arg in function.args.args] == ["x"]
