"""Ablation: the L1 LRU Bloom filter array (DESIGN.md §4, decision 1).

Disabling L1 (capacity ~ 1) must collapse its traffic onto the deeper,
costlier levels and raise mean latency; growing the capacity recovers the
temporal locality of the workload with diminishing returns.
"""

from repro.experiments import ablation_lru


def test_ablation_lru_capacity(run_once):
    result = run_once(
        lambda: ablation_lru.run(
            lru_capacities=(1, 64, 512, 4096),
            num_servers=20,
            group_size=5,
            num_files=1_200,
            num_ops=8_000,
        )
    )
    print()
    print(result.format())

    disabled = result.rows[0]
    enabled = result.rows[-1]
    # Without L1, almost nothing is served there; with it, L1 dominates.
    assert disabled["l1"] < 0.15
    assert enabled["l1"] > 0.5
    # The lost L1 traffic lands on L2/L3 when disabled.
    assert disabled["l3"] > enabled["l3"]
    # Latency: the LRU array pays for itself.
    assert enabled["mean_latency_ms"] < disabled["mean_latency_ms"]
    # Diminishing returns: the last doubling moves L1 by little.
    second_last = result.rows[-2]
    assert abs(enabled["l1"] - second_last["l1"]) < 0.1
