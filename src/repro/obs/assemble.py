"""Causal-tree assembly over span JSONL dumps.

Every traced hop (client enqueue, write-back flush, MDS arbitration,
invalidation mint, peer apply, prototype lookup legs) is one span that
carries ``trace_id`` / ``span_id`` / ``parent_id``.  This module stitches
a bag of such span dicts — typically the concatenation of one or more
``--trace-out`` JSONL files — back into per-mutation causal trees:

- :func:`assemble_traces` groups spans by ``trace_id`` and links
  ``parent_id -> span_id`` into :class:`TraceNode` trees.  A span whose
  parent is missing (dropped file, pre-v2 span, cross-run id) becomes an
  extra root rather than being discarded: lossy inputs degrade to a
  forest, never to silence.
- :func:`render_tree` / :func:`render_forest` draw ASCII trees, the
  ``python -m repro.obs assemble`` output.
- :func:`chain_kinds` / :func:`find_chains` answer the acceptance
  question directly: which traces contain a complete
  ``wb_enqueue -> wb_flush -> wb_arbitrate -> inval_mint -> inval_apply``
  causal chain?
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: The write-back mutation pipeline, in causal order.  A trace containing
#: every kind proves one mutation was followed end to end.
MUTATION_CHAIN: Tuple[str, ...] = (
    "wb_enqueue",
    "wb_flush",
    "wb_arbitrate",
    "inval_mint",
    "inval_apply",
)


class TraceNode:
    """One span plus its causal children (sorted for determinism)."""

    __slots__ = ("span", "children")

    def __init__(self, span: Dict[str, Any]) -> None:
        self.span = span
        self.children: List["TraceNode"] = []

    @property
    def span_id(self) -> int:
        return self.span.get("span_id", self.span.get("trace_id", -1))

    @property
    def kind(self) -> str:
        return self.span.get("kind", "") or "span"

    def walk(self) -> Iterable["TraceNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"TraceNode(span_id={self.span_id}, kind={self.kind!r}, "
            f"children={len(self.children)})"
        )


class TraceTree:
    """All spans of one ``trace_id``, linked into a forest of roots."""

    def __init__(self, trace_id: int, roots: List[TraceNode]) -> None:
        self.trace_id = trace_id
        self.roots = roots

    def walk(self) -> Iterable[TraceNode]:
        for root in self.roots:
            yield from root.walk()

    @property
    def span_count(self) -> int:
        return sum(1 for _ in self.walk())

    def kinds(self) -> Set[str]:
        return {node.kind for node in self.walk()}

    def __repr__(self) -> str:
        return (
            f"TraceTree(trace_id={self.trace_id}, roots={len(self.roots)}, "
            f"spans={self.span_count})"
        )


def assemble_traces(
    spans: Iterable[Dict[str, Any]],
    trace_id: Optional[int] = None,
) -> List[TraceTree]:
    """Group spans by ``trace_id`` and link them into causal trees.

    Pass ``trace_id`` to keep only one trace.  Trees come back sorted by
    ``trace_id``; children within a node sort by ``span_id``, so output
    is deterministic regardless of input file order.
    """
    by_trace: Dict[int, List[Dict[str, Any]]] = {}
    for span in spans:
        tid = span.get("trace_id", -1)
        if trace_id is not None and tid != trace_id:
            continue
        by_trace.setdefault(tid, []).append(span)

    trees: List[TraceTree] = []
    for tid in sorted(by_trace):
        group = by_trace[tid]
        nodes = [TraceNode(span) for span in group]
        by_span_id: Dict[int, TraceNode] = {}
        for node in nodes:
            # First writer wins on a (malformed) duplicate span_id so
            # linking stays deterministic.
            by_span_id.setdefault(node.span_id, node)
        roots: List[TraceNode] = []
        for node in nodes:
            parent_id = node.span.get("parent_id")
            parent = (
                by_span_id.get(parent_id) if parent_id is not None else None
            )
            if parent is None or parent is node:
                roots.append(node)
            else:
                parent.children.append(node)
        for node in nodes:
            node.children.sort(key=lambda child: child.span_id)
        roots.sort(key=lambda root: root.span_id)
        trees.append(TraceTree(tid, roots))
    return trees


# ----------------------------------------------------------------------
# Chain queries
# ----------------------------------------------------------------------


def chain_kinds(tree: TraceTree) -> Tuple[str, ...]:
    """Which :data:`MUTATION_CHAIN` stages this trace contains, in order."""
    present = tree.kinds()
    return tuple(kind for kind in MUTATION_CHAIN if kind in present)


def find_chains(trees: Sequence[TraceTree]) -> List[TraceTree]:
    """Traces containing every stage of :data:`MUTATION_CHAIN`."""
    wanted = set(MUTATION_CHAIN)
    return [tree for tree in trees if wanted.issubset(tree.kinds())]


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _node_label(node: TraceNode) -> str:
    span = node.span
    parts = [node.kind]
    component = span.get("component", "")
    if component:
        parts.append(f"@{component}")
    label = "".join(parts)
    path = span.get("path", "")
    origin = span.get("origin_id", -1)
    detail = [f"span={node.span_id}"]
    if path:
        detail.append(f"path={path}")
    if origin is not None and origin >= 0:
        detail.append(f"origin={origin}")
    level = span.get("level")
    if level:
        detail.append(f"level={level}")
    events = span.get("events") or []
    if events:
        detail.append(f"events={len(events)}")
    return f"{label} [{', '.join(detail)}]"


def render_tree(tree: TraceTree) -> str:
    """One ASCII tree per trace, box-drawing connectors."""
    lines = [f"trace {tree.trace_id} ({tree.span_count} spans)"]
    stages = chain_kinds(tree)
    if stages:
        lines.append(f"  chain: {' -> '.join(stages)}")

    def draw(node: TraceNode, prefix: str, is_last: bool) -> None:
        connector = "`-- " if is_last else "|-- "
        lines.append(prefix + connector + _node_label(node))
        child_prefix = prefix + ("    " if is_last else "|   ")
        for index, child in enumerate(node.children):
            draw(child, child_prefix, index == len(node.children) - 1)

    for index, root in enumerate(tree.roots):
        draw(root, "  ", index == len(tree.roots) - 1)
    return "\n".join(lines)


def render_forest(trees: Sequence[TraceTree]) -> str:
    if not trees:
        return "no traces\n"
    return "\n\n".join(render_tree(tree) for tree in trees) + "\n"
