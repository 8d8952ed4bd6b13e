"""Figure 12: latency of updating stale replicas, HBA vs. G-HBA.

Paper: an HBA update multicasts to all N - 1 MDSs; G-HBA updates one MDS
per group, cutting both messages (~M-fold) and latency, at N = 30
(M = 5 or 6) and N = 100 (M = 9) for all three traces.
"""

from repro.experiments import fig12


def test_fig12_update_latency(run_once):
    result = run_once(lambda: fig12.run(num_updates=40, files_per_update=5))
    print()
    print(result.format())

    for row in result.rows:
        n, m = row["num_servers"], row["group_size"]
        # HBA reaches every other MDS.
        assert row["hba_avg_messages"] == n - 1
        # G-HBA reaches ~one MDS per other group (IDBFA false positives may
        # add the odd dropped message).
        groups = -(-n // m)  # ceil
        assert row["ghba_avg_messages"] <= groups + 2
        assert row["ghba_avg_messages"] >= groups - 1
        # Latency: G-HBA's narrower multicast is strictly faster.
        assert row["ghba_avg_latency_ms"] < row["hba_avg_latency_ms"]

    # The gap widens with N (the paper's scalability argument).
    small = next(r for r in result.rows if r["num_servers"] == 30)
    large = next(r for r in result.rows if r["num_servers"] == 100)
    gap_small = small["hba_avg_latency_ms"] / small["ghba_avg_latency_ms"]
    gap_large = large["hba_avg_latency_ms"] / large["ghba_avg_latency_ms"]
    assert gap_large > gap_small
