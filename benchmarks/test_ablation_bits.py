"""Ablation: Bloom filter bit/file ratio (paper §2.3's memory-for-accuracy
argument, DESIGN.md §4).

Raising m/n must collapse false forwards roughly as Equation 1 predicts,
at a linear memory cost — and G-HBA's per-MDS memory at 16 bits/file stays
below HBA's at 8 (the paper's affordability point).
"""

from repro.experiments import ablation_bits


def test_ablation_bit_ratio(run_once):
    result = run_once(
        lambda: ablation_bits.run(
            bit_ratios=(4.0, 8.0, 16.0),
            num_queries=4_000,
        )
    )
    print()
    print(result.format(float_digits=5))
    rows = {row["bits_per_file"]: row for row in result.rows}

    # False routing collapses as the ratio rises (Eq. 1's direction).
    assert rows[4.0]["false_forward_rate"] > 10 * (
        rows[16.0]["false_forward_rate"]
    )
    assert rows[4.0]["false_forward_rate"] > rows[8.0]["false_forward_rate"]
    # ...and latency follows (false forwards cost a wasted round trip).
    assert rows[16.0]["mean_latency_ms"] < rows[4.0]["mean_latency_ms"]
    # Memory grows linearly with the ratio.
    assert rows[16.0]["filter_bytes"] == 4 * rows[4.0]["filter_bytes"]

    # The affordability claim: G-HBA's replica array at 16 bits/file costs
    # less per MDS than a flat BFA/HBA array at 8 bits/file (same N, same
    # files per server) — (theta + 1) filters vs. N filters.
    params = result.params
    n, m = params["num_servers"], 4
    theta = (n - m) // m
    ghba16_filters = (theta + 1) * rows[16.0]["filter_bytes"]
    hba8_filters = n * rows[8.0]["filter_bytes"]
    assert ghba16_filters < hba8_filters
