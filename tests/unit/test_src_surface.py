"""No definition under ``src/repro`` exists only for the tests.

The scan: a function, method or class defined under ``src/repro`` (dunder
names excluded) is *test-only* when its name never occurs outside its own
definition in the ASTs of ``src/``, ``bench/``, ``benchmarks/`` and
``examples/``.  An occurrence is a ``Name``, an ``Attribute``, an import
alias or a string constant shaped like an identifier (``getattr`` and
dispatch tables name callers that way).  The scan matches by name, so a
test-only method that shares its name with a used one goes unseen.  Some
of those unseen ones stay on purpose: ``bench/layers.py`` (never edited)
wraps methods by name to book their cost, so ``GatewayCache.pin``,
``MetadataStore.remove``, ``BloomFilterArray.query`` / ``probe_batch`` and
``LRUBloomFilterArray.probe_batch`` must exist even where only tests call
them.

The result must equal :data:`ALLOWED`: the test-only definitions kept on
purpose, each with the reason it stays.  Only :mod:`ast` is used, so the
gate reads the same under every supported interpreter.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "bench", "benchmarks", "examples")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

ITEM_7 = "claimed by ROADMAP item 7 (Bloom gauges)"
ITEM_10 = "claimed by ROADMAP item 10"
ITEMS_6_16 = "claimed by ROADMAP items 6 and 16"
REFERENCE = "driven by a differential or reference suite"
CHECKER = "invariant checker or property-suite operation"
ORACLE = "the Namespace oracle's own API"
ACCESSOR = "read-only accessor that tests observe state with"

#: The test-only definitions kept on purpose → why each stays.
ALLOWED: Dict[str, str] = {
    "repro.bloom.analysis.expected_fill_ratio": ITEM_7,
    "repro.bloom.analysis.required_bits": ITEM_7,
    "repro.bloom.analysis.unique_hit_probability": ITEM_7,
    "repro.bloom.staleness.expected_l4_escape_rate": ITEM_7,
    "repro.bloom.staleness.measure_staleness": ITEM_7,
    "repro.bloom.staleness.stale_replica_rates": ITEM_7,
    "repro.gateway.cache.GatewayCache.unpin": ITEM_10,
    "repro.gateway.hotspot.SpaceSavingSketch.guaranteed": ITEM_10,
    "repro.prototype.cluster.PrototypeCluster.remove_node": ITEMS_6_16,
    "repro.net.supervisor.ProcessSupervisor.kill_mds": ITEMS_6_16,
    "repro.bloom.arrays.LRUBloomFilterArray.touch": REFERENCE,
    "repro.bloom.counting.CountingBloomFilter.count_estimate": REFERENCE,
    "repro.bloom.counting.CountingBloomFilter.to_bloom_filter": REFERENCE,
    "repro.bloom.bloom_filter.BloomFilter.hash_family": REFERENCE,
    "repro.bloom.counting.CountingBloomFilter.hash_family": REFERENCE,
    "repro.bloom.arrays.LRUBloomFilterArray.check_slices": CHECKER,
    "repro.core.cellindex.CellIndex.check_index": CHECKER,
    "repro.core.server.MetadataServer.rebuild_local_filter": CHECKER,
    "repro.gateway.admission.FairAdmissionController.set_weight": CHECKER,
    "repro.metadata.namespace.Namespace.ensure_file": ORACLE,
    "repro.bloom.arrays.ArrayLookup.is_miss": ACCESSOR,
    "repro.bloom.arrays.IDBloomFilterArray.replica_count": ACCESSOR,
    "repro.core.cluster.GHBACluster.crashed_server_ids": ACCESSOR,
    "repro.prototype.cluster.PrototypeCluster.crashed_node_ids": ACCESSOR,
    "repro.core.group.Group.get_member": ACCESSOR,
    "repro.core.group.Group.hosted_replica_ids": ACCESSOR,
    "repro.faults.injector.PlanFaultInjector.dropped_oneways": ACCESSOR,
    "repro.faults.injector.PlanFaultInjector.silenced": ACCESSOR,
    "repro.gateway.admission.FairAdmissionController.queued_items": ACCESSOR,
    "repro.net.reliability.ReliableTransport.replies_received": ACCESSOR,
    "repro.sim.rng.ZipfSampler.probability": ACCESSOR,
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _occurrences(tree: ast.AST) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield (node.asname or node.name).rsplit(".", 1)[-1]
            if node.asname:
                yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if IDENTIFIER.match(node.value):
                yield node.value


def _definitions(tree: ast.AST, prefix: str) -> Iterator[tuple]:
    """``(qualified name, node)`` of every definition, nested ones too."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, _DEFINITIONS):
            qualified = f"{prefix}.{child.name}"
            yield qualified, child
            yield from _definitions(child, qualified)
        else:
            yield from _definitions(child, prefix)


def scan() -> Dict[str, int]:
    """Test-only definitions under ``src/repro``, qualified name → lines."""
    uses: Counter = Counter()
    candidates = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            uses.update(_occurrences(tree))
            if top == "src":  # src/ holds the one package, repro
                module = path.relative_to(ROOT / "src").with_suffix("")
                if module.name == "__init__":
                    module = module.parent
                candidates.extend(_definitions(tree, ".".join(module.parts)))
    # An occurrence inside a definition's own body (recursion) is no caller.
    own: Counter = Counter()
    for _, node in candidates:
        own[node.name] += sum(name == node.name for name in _occurrences(node))
    return {
        qualified: node.end_lineno - node.lineno + 1
        for qualified, node in candidates
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and uses[node.name] - own[node.name] == 0
    }


def test_only_the_allowlist_is_test_only():
    found = scan()
    unexpected = sorted(set(found) - set(ALLOWED))
    stale = sorted(set(ALLOWED) - set(found))
    assert not unexpected and not stale, (
        f"defined under src/repro but called only from tests: {unexpected} — "
        "give each a caller outside tests/ (src/, bench/, benchmarks/, "
        "examples/) or add it to ALLOWED in this file with the reason it "
        "stays; "
        f"allowlisted but no longer test-only (now called, or gone): {stale} "
        "— drop them from ALLOWED"
    )

