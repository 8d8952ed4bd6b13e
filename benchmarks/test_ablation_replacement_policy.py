"""Ablation: L1 replacement policy (paper §7's replacement-efficiency
future work, DESIGN.md §4).

Under cache pressure, frequency-aware eviction (LFU) must beat the paper's
LRU, which in turn must beat FIFO, on a Zipf-skewed metadata stream.
"""

from repro.experiments import ablation_policies


def test_ablation_replacement_policy(run_once):
    result = run_once(
        lambda: ablation_policies.run(
            policies=("fifo", "lru", "lfu"),
            lru_capacity=24,
            num_ops=8_000,
        )
    )
    print()
    print(result.format())
    rows = {row["policy"]: row for row in result.rows}
    # Hit-share ordering: LFU >= LRU >= FIFO, with a real LFU-FIFO gap.
    assert rows["lfu"]["l1"] >= rows["lru"]["l1"]
    assert rows["lru"]["l1"] >= rows["fifo"]["l1"]
    assert rows["lfu"]["l1"] > rows["fifo"]["l1"] + 0.03
    # Latency follows the hit share.
    assert rows["lfu"]["mean_latency_ms"] <= rows["fifo"]["mean_latency_ms"]
    # Same query stream in every run (fair comparison).
    queries = {row["queries"] for row in result.rows}
    assert len(queries) == 1
