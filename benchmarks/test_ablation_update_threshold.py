"""Ablation: the XOR update-threshold rule (DESIGN.md §4, decision 4).

Threshold 0 keeps replicas perfectly fresh at maximal message cost; larger
thresholds trade update traffic for stale-replica escapes to L4.
"""

from repro.experiments import ablation_updates


def test_ablation_update_threshold(run_once):
    result = run_once(
        lambda: ablation_updates.run(
            thresholds=(0, 64, 256, 1024),
            num_servers=20,
            group_size=5,
            churn_rounds=30,
        )
    )
    print()
    print(result.format())

    eager = result.rows[0]
    lazy = result.rows[-1]
    # Eager updates: many messages, zero staleness escapes.
    assert eager["stale_escape_rate"] == 0.0
    assert eager["update_messages"] > 0
    # Lazy updates: traffic collapses, staleness appears.
    assert lazy["update_messages"] < eager["update_messages"] / 2
    assert lazy["stale_escape_rate"] > 0.3
    # Messages are monotonically non-increasing in the threshold.
    messages = [row["update_messages"] for row in result.rows]
    assert messages == sorted(messages, reverse=True)
