"""Figure 15: messages exchanged when adding new nodes to the prototype.

Paper: adding a node to HBA exchanges Bloom filters with every existing MDS
(~2N messages each, ~1200 cumulative for 10 adds at 60 nodes); G-HBA
multicasts the newcomer's replica to one node per group plus a light
intra-group migration, saving severalfold.  Messages are counted on the
wire by the prototype transport.
"""

from repro.experiments import fig15


def test_fig15_add_node_messages(run_once):
    result = run_once(
        lambda: fig15.run(initial_nodes=20, group_size=7, additions=10)
    )
    print()
    print(result.format())

    # HBA: the k-th add exchanges 2 * (N + k - 1) messages.
    for index, row in enumerate(result.rows):
        expected = 2 * (20 + index)
        assert row["hba_messages"] == expected

    last = result.rows[-1]
    # Cumulative savings: G-HBA well below HBA overall.
    assert last["ghba_cumulative"] < 0.7 * last["hba_cumulative"]
    # Cheap joins (no split) are far below the HBA exchange.
    cheap_joins = [
        row["ghba_messages"]
        for row in result.rows
        if row["ghba_messages"] < row["hba_messages"] / 2
    ]
    assert len(cheap_joins) >= 5
