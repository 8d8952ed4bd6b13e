"""Unit tests for causal-tree assembly (`repro.obs.assemble`)."""

from repro.obs.assemble import (
    MUTATION_CHAIN,
    assemble_traces,
    chain_kinds,
    find_chains,
    render_forest,
    render_tree,
    tree_to_dict,
)


def _span(trace_id, span_id, parent_id=None, kind="", **extra):
    span = {"trace_id": trace_id, "span_id": span_id, "kind": kind}
    if parent_id is not None:
        span["parent_id"] = parent_id
    span.update(extra)
    return span


def _chain_spans(trace_id=7, base=100):
    """A full five-hop mutation chain, one span per stage."""
    spans = []
    parent = None
    for offset, kind in enumerate(MUTATION_CHAIN):
        spans.append(_span(trace_id, base + offset, parent, kind))
        parent = base + offset
    return spans


class TestAssembly:
    def test_links_parent_to_child(self):
        trees = assemble_traces(_chain_spans())
        assert len(trees) == 1
        tree = trees[0]
        assert tree.trace_id == 7
        assert len(tree.roots) == 1
        # Each stage nests under the previous one.
        node = tree.roots[0]
        kinds = [node.kind]
        while node.children:
            assert len(node.children) == 1
            node = node.children[0]
            kinds.append(node.kind)
        assert kinds == list(MUTATION_CHAIN)
        assert tree.span_count == 5

    def test_orphan_becomes_root_not_dropped(self):
        spans = [
            _span(1, 10, kind="wb_enqueue"),
            _span(1, 11, parent_id=999, kind="wb_flush"),  # parent missing
        ]
        (tree,) = assemble_traces(spans)
        assert len(tree.roots) == 2
        assert tree.span_count == 2

    def test_self_parent_becomes_root(self):
        (tree,) = assemble_traces([_span(1, 10, parent_id=10)])
        assert len(tree.roots) == 1

    def test_duplicate_span_id_first_writer_wins(self):
        spans = [
            _span(1, 10, kind="wb_enqueue"),
            _span(1, 10, kind="impostor"),
            _span(1, 11, parent_id=10, kind="wb_flush"),
        ]
        (tree,) = assemble_traces(spans)
        roots = {r.kind for r in tree.roots}
        assert roots == {"wb_enqueue", "impostor"}
        # The child attached to the first-seen node with span_id 10.
        enqueue = next(r for r in tree.roots if r.kind == "wb_enqueue")
        assert [c.kind for c in enqueue.children] == ["wb_flush"]

    def test_sorted_deterministically_regardless_of_input_order(self):
        spans = _chain_spans(trace_id=3) + _chain_spans(trace_id=1)
        forward = assemble_traces(spans)
        backward = assemble_traces(list(reversed(spans)))
        assert [t.trace_id for t in forward] == [1, 3]
        assert render_forest(forward) == render_forest(backward)

    def test_trace_id_filter(self):
        spans = _chain_spans(trace_id=3) + _chain_spans(trace_id=1)
        trees = assemble_traces(spans, trace_id=3)
        assert [t.trace_id for t in trees] == [3]

    def test_children_sorted_by_span_id(self):
        spans = [
            _span(1, 10, kind="wb_enqueue"),
            _span(1, 30, parent_id=10, kind="b"),
            _span(1, 20, parent_id=10, kind="a"),
        ]
        (tree,) = assemble_traces(spans)
        assert [c.span_id for c in tree.roots[0].children] == [20, 30]


class TestChainQueries:
    def test_chain_kinds_in_causal_order(self):
        (tree,) = assemble_traces(_chain_spans())
        assert chain_kinds(tree) == MUTATION_CHAIN

    def test_partial_chain(self):
        (tree,) = assemble_traces(_chain_spans()[:3])
        assert chain_kinds(tree) == ("wb_enqueue", "wb_flush", "wb_arbitrate")

    def test_find_chains_filters_to_complete(self):
        spans = _chain_spans(trace_id=1) + _chain_spans(trace_id=2)[:2]
        trees = assemble_traces(spans)
        complete = find_chains(trees)
        assert [t.trace_id for t in complete] == [1]


class TestRendering:
    def test_render_tree_labels_and_chain_line(self):
        spans = _chain_spans()
        spans[0].update(
            {"component": "gateway", "path": "/a/b", "origin_id": 4}
        )
        (tree,) = assemble_traces(spans)
        text = render_tree(tree)
        assert text.startswith("trace 7 (5 spans)")
        assert "chain: " + " -> ".join(MUTATION_CHAIN) in text
        assert "wb_enqueue@gateway [span=100, path=/a/b, origin=4]" in text
        assert "`-- " in text  # last-child connector

    def test_unkinded_span_renders_as_span(self):
        (tree,) = assemble_traces([_span(1, 10)])
        assert "span [span=10]" in render_tree(tree)

    def test_render_forest_empty(self):
        assert render_forest([]) == "no traces\n"

    def test_tree_to_dict_shape(self):
        (tree,) = assemble_traces(_chain_spans())
        dumped = tree_to_dict(tree)
        assert dumped["trace_id"] == 7
        assert dumped["span_count"] == 5
        assert dumped["chain"] == list(MUTATION_CHAIN)
        node = dumped["roots"][0]
        depth = 1
        while node["children"]:
            node = node["children"][0]
            depth += 1
        assert depth == 5
        assert node["span"]["kind"] == "inval_apply"
