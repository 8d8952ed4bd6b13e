"""No definition under ``src/repro`` exists only for the tests.

The scan: a function, method or class defined under ``src/repro`` (dunder
names excluded) is *test-only* when its name never occurs outside its own
definition in the ASTs of ``src/``, ``bench/`` (its ``tests/`` aside),
``benchmarks/`` and ``examples/``.  An occurrence is a ``Name``, an
``Attribute``, an import alias or a string constant shaped like an
identifier (``getattr`` and dispatch tables name callers that way).  The
scan matches by name, so a test-only method that shares its name with a
used one goes unseen.  CI's ``runsurface`` job (``tests/_runsurface.py``)
sees those: it records what CI's commands execute, and each function or
method that never runs must be in :data:`ALLOWED` or :data:`NEVER_RUN`.
Some of them stay on purpose: ``bench/layers.py`` (never edited) wraps
methods by name to book their cost, so
``MetadataServer.verify_and_fetch``, ``GatewayCache.pin``,
``MetadataStore.remove``, ``BloomFilterArray.probe_batch``,
``LRUBloomFilterArray.probe_batch`` and ``HotspotDetector.hot_keys`` must
exist even where only tests call them.

The result must equal :data:`ALLOWED`: the test-only definitions kept on
purpose, each with the reason it stays.  Only :mod:`ast` is used, so the
gate reads the same under every supported interpreter.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, Tuple

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "bench", "benchmarks", "examples")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

ITEM_7 = "claimed by ROADMAP item 7 (Bloom gauges)"
ITEM_10 = "claimed by ROADMAP item 10"
ITEMS_6_16 = "claimed by ROADMAP items 6 and 16"
REFERENCE = "driven by a differential or reference suite"
CHECKER = "invariant checker or property-suite operation"
ORACLE = "the Namespace oracle's own API (ROADMAP item 24)"
ACCESSOR = "read-only accessor that tests observe state with"
BENCH = "wrapped by name by the frozen bench/layers.py TARGETS"
ITEMS_4_7 = "claimed by ROADMAP items 4 and 7 (§3.4's filter algebra)"
ITEM_5 = "claimed by ROADMAP item 5 (a fleet-backed gateway backend)"
ITEM_6 = "claimed by ROADMAP item 6"
ITEM_16 = "claimed by ROADMAP item 16 (a driver that speaks only messages)"
SAFETY = "safety code: an error path, an input check or durability"
NULL = "completes a null object's protocol, which callers guard by .enabled"
FALLBACK = "Python 3.9's fallback; the run-surface job runs 3.11"
WIRE = "a wire type the golden frames pin"
EMPTY = "its caller runs once per element of a list CI's runs leave empty"
PINNED = "a small public operation its unit tests pin; no entry point needs it yet"
BASELINE = "a baseline's leave, the counterpart of the join Table 1 and Figure 11 measure"

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

#: Functions and methods the static scan above cannot see (a caller of the
#: same bare name exists) but that no command of CI runs, as measured by
#: ``tests/_runsurface.py`` (CI's ``runsurface`` job) → why each stays.
NEVER_RUN: Dict[str, str] = {
    "repro.core.server.MetadataServer.verify_and_fetch": BENCH,
    "repro.gateway.cache.GatewayCache.pin": BENCH,
    "repro.metadata.store.MetadataStore.remove": BENCH,
    "repro.bloom.arrays.BloomFilterArray.probe_batch": BENCH,
    "repro.bloom.arrays.LRUBloomFilterArray.probe_batch": BENCH,
    "repro.gateway.hotspot.HotspotDetector.hot_keys": BENCH,
    "repro.prototype.node.MDSNode._on_insert": ITEM_16,
    "repro.prototype.node.MDSNode._on_publish": ITEM_16,
    "repro.prototype.node.MDSNode._on_replace_replica": ITEM_16,
    "repro.prototype.node.MDSNode._on_drop_replica": ITEM_16,
    "repro.net.codec._bloom": ITEM_16,
    "repro.net.codec._put_bloom": ITEM_16,
    "repro.net.codec._raw": ITEM_16,
    "repro.net.codec._put_bytes": WIRE,
    "repro.prototype.cluster.PrototypeCluster.verify_batch": ITEM_5,
    "repro.prototype.cluster.PrototypeCluster.apply_mutation_batch": ITEM_5,
    "repro.prototype.cluster.PrototypeCluster._batch_request": ITEM_5,
    "repro.gateway.cache.GatewayCache.invalidate_home": ITEM_5,
    "repro.prototype.cluster.PrototypeCluster._hba_leave": ITEM_6,
    "repro.bloom.algebra.bloom_union": ITEMS_4_7,
    "repro.bloom.algebra.bloom_intersection": ITEMS_4_7,
    "repro.bloom.algebra.bloom_xor": ITEMS_4_7,
    "repro.bloom.analysis.false_positive_rate": ITEM_7,
    "repro.gateway.hotspot.SpaceSavingSketch.top": ITEM_10,
    "repro.metadata.namespace.Namespace._create": ORACLE,
    "repro.metadata.namespace.Namespace._iter_subtree": ORACLE,
    "repro.metadata.namespace.Namespace._resolve": ORACLE,
    "repro.metadata.namespace.Namespace.create_file": ORACLE,
    "repro.metadata.namespace.Namespace.exists": ORACLE,
    "repro.metadata.namespace.Namespace.files": ORACLE,
    "repro.metadata.namespace.Namespace.makedirs": ORACLE,
    "repro.metadata.namespace.Namespace.remove": ORACLE,
    "repro.metadata.namespace.Namespace.rename": ORACLE,
    "repro.metadata.namespace.Namespace.stat": ORACLE,
    "repro.metadata.namespace.Namespace.update": ORACLE,
    "repro.metadata.namespace.Namespace.walk": ORACLE,
    "repro.replication.standby.StandbyEndpoint.checkpoint_doc": SAFETY,
    "repro.replication.standby.StandbyEndpoint.save": SAFETY,
    "repro.replication.standby.StandbyEndpoint.restore_doc": SAFETY,
    "repro.replication.standby.StandbyEndpoint.load": SAFETY,
    "repro.net.codec._truncated": SAFETY,
    "repro.net.codec._encoder_for": SAFETY,
    "repro.bloom.hashing._drop_oldest_half": SAFETY,
    "repro.prototype.seqlog.SeqReceiver.skip_to": SAFETY,
    "repro.faults.injector.NullFaultInjector.on_send": NULL,
    "repro.faults.injector.NullFaultInjector.filter_targets": NULL,
    "repro.faults.injector.NullFaultInjector.is_silenced": NULL,
    "repro.faults.injector.NullFaultInjector.silence": NULL,
    "repro.faults.injector.NullFaultInjector.restore": NULL,
    "repro.obs.flight.NullFlightRecorder.record": NULL,
    "repro.obs.flight.NullFlightRecorder.events": NULL,
    "repro.obs.flight.NullFlightRecorder.clear": NULL,
    "repro.obs.trace._NullSpan.context": NULL,
    "repro.obs.trace._NullSpan.level_path": NULL,
    "repro.bloom.bloom_filter.popcount": FALLBACK,
    "repro.replication.cdc.ChangeCapture.truncate": CHECKER,
    "repro.bloom.bloom_filter.BloomFilter.clear": REFERENCE,
    "repro.bloom.arrays.BloomFilterArray.items": REFERENCE,
    "repro.obs.trace.CollectingTracer.clear": REFERENCE,
    "repro.gateway.cache.GatewayCache.clear": REFERENCE,
    "repro.metadata.store.MetadataStore.clear": REFERENCE,
    "repro.metadata.attributes.FileMetadata.is_directory": ORACLE,
    "repro.bloom.bloom_filter.BloomFilter.num_items": REFERENCE,
    "repro.bloom.arrays.LRUBloomFilterArray.clear": REFERENCE,
    "repro.bloom.arrays.LRUBloomFilterArray.peek": REFERENCE,
    "repro.bloom.counting.CountingBloomFilter.clear": REFERENCE,
    "repro.bloom.counting.CountingBloomFilter.counters": REFERENCE,
    "repro.bloom.counting.CountingBloomFilter.nonzero_value": REFERENCE,
    "repro.bloom.counting.CountingBloomFilter.num_counters": REFERENCE,
    "repro.bloom.counting.CountingBloomFilter.num_items": REFERENCE,
    "repro.baselines.hash_metadata.HashMetadataCluster.lookup": ACCESSOR,
    "repro.baselines.hash_metadata.HashMetadataCluster.num_servers": ACCESSOR,
    "repro.baselines.table_mapping.TableMappingCluster.lookup": ACCESSOR,
    "repro.baselines.table_mapping.TableMappingCluster.home_of": ACCESSOR,
    "repro.baselines.table_mapping.TableMappingCluster.num_servers": ACCESSOR,
    "repro.baselines.table_mapping.TableMappingCluster.file_count": ACCESSOR,
    "repro.baselines.dynamic_subtree.DynamicSubtreePartition.home_of": ACCESSOR,
    "repro.baselines.hash_placement.HashPlacementGroup.host_of": ACCESSOR,
    "repro.core.cluster.BatchVerifyResult.found": ACCESSOR,
    "repro.gateway.staleness.StalenessAuditor.ok": ACCESSOR,
    "repro.gateway.coalesce.CoalesceResult.coalesced": ACCESSOR,
    "repro.replication.audit.SwitchoverReport.ok": ACCESSOR,
    "repro.core.server.MetadataServer.memory_budget_bytes": ACCESSOR,
    "repro.obs.slo.WindowBurn.as_dict": EMPTY,
    "repro.baselines.hash_metadata.HashMetadataCluster.remove_server": BASELINE,
    "repro.baselines.table_mapping.TableMappingCluster.remove_server": BASELINE,
    "repro.baselines.hash_placement.HashPlacementGroup.remove_member": BASELINE,
    "repro.baselines.hash_metadata.HashMetadataCluster.files_per_server": PINNED,
    "repro.baselines.hash_metadata.HashMetadataCluster.load_imbalance": PINNED,
    "repro.metadata.attributes.FileMetadata.name": PINNED,
    "repro.metadata.attributes.FileMetadata.parent_path": PINNED,
    "repro.experiments.common.ExperimentResult.column": PINNED,
    "repro.obs.registry.GaugeChild.inc": PINNED,
    "repro.obs.registry.GaugeFamily.value": PINNED,
    "repro.obs.flight.FlightRecorder.clear": PINNED,
    "repro.obs.slo._match_positions": PINNED,
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


def sources(root: Path = ROOT) -> Iterator[Tuple[str, ast.Module]]:
    """``(module name, tree)`` of every scanned file.  ``bench/tests/``
    holds tests, so it is not scanned; a module under ``src/`` is named
    as it is imported (``repro.core.cluster``), any other by its path."""
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            parts = path.relative_to(root).with_suffix("").parts
            if parts[:2] == ("bench", "tests"):
                continue
            if top == "src":  # src/ holds the one package, repro
                parts = parts[1:]
            if parts[-1] == "__init__":
                parts = parts[:-1]
            text = path.read_text(encoding="utf-8")
            yield ".".join(parts), ast.parse(text, str(path))


def scan() -> Dict[str, int]:
    """Test-only definitions under ``src/repro``, qualified name → lines."""
    uses: Counter = Counter()
    candidates = []
    for module, tree in sources():
        uses.update(_occurrences(tree))
        if module.split(".")[0] == "repro":
            candidates.extend(_definitions(tree, module))
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



def test_every_never_run_entry_names_a_definition_the_scan_cannot_see():
    """``NEVER_RUN`` is checked against a run only in CI's slow job; here,
    fast, each entry must still name a function or method under
    ``src/repro`` that the run-surface recorder counts, and none may be in
    ``ALLOWED`` as well."""
    from tests._runsurface import definitions

    defined = set(definitions().values())
    missing = sorted(set(NEVER_RUN) - defined)
    both = sorted(set(NEVER_RUN) & set(ALLOWED))
    assert not missing and not both, (
        f"NEVER_RUN names no recorded definition: {missing}; "
        f"in both ALLOWED and NEVER_RUN: {both}"
    )
