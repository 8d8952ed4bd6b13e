"""Ablation: cooperative L1 caching (paper §7, DESIGN.md §4).

Pushing resolved mappings to group peers must raise the L1 hit share and
cut latency; the hint messages are partially offset by the group
multicasts they avoid.
"""

from repro.experiments import ablation_cooperative


def test_ablation_cooperative_caching(run_once):
    result = run_once(
        lambda: ablation_cooperative.run(fanouts=(0, 2, 4), num_ops=8_000)
    )
    print()
    print(result.format())
    rows = {row["fanout"]: row for row in result.rows}

    # Cooperation raises L1 monotonically and lowers latency.
    assert rows[2]["l1"] > rows[0]["l1"] + 0.05
    assert rows[4]["l1"] > rows[2]["l1"]
    assert rows[4]["mean_latency_ms"] < rows[0]["mean_latency_ms"]
    # The avoided L3 multicasts offset part of the hint cost: messages per
    # query grow by far less than the fanout would naively suggest.
    per_query_0 = rows[0]["total_messages"] / rows[0]["queries"]
    per_query_2 = rows[2]["total_messages"] / rows[2]["queries"]
    assert per_query_2 < per_query_0 + 2  # naive cost would be +2 exactly
    # Fewer queries reach the group multicast level.
    assert rows[4]["l3"] < rows[0]["l3"]
