"""Figure 13: percentage of queries served by each hierarchy level.

Paper: L1 absorbs most queries via temporal locality; more than 90% of
requests resolve within the origin's group (L1+L2+L3) even at 100 MDSs;
the L4 share grows with N as stale replicas accumulate.
"""

from repro.experiments import fig13


def test_fig13_hit_rates(run_once):
    result = run_once(
        lambda: fig13.run(
            server_counts=(10, 30, 60, 100),
            num_files=1_000,
            num_ops=20_000,
        )
    )
    print()
    print(result.format())

    for row in result.rows:
        # The within-group guarantee: >90% of queries never leave the group.
        assert row["within_group"] > 0.9
        # L1 is the dominant single level (locality capture).
        assert row["l1"] >= max(row["l2"], row["l4"])
        # Every level fraction is a valid probability.
        assert 0.99 <= row["l1"] + row["l2"] + row["l3"] + row["l4"] <= 1.01

    # The L1+L2 share is strongest at small N (the paper reports >80%
    # overall at full trace scale; scaled-down runs warm the LRU less).
    assert result.rows[0]["l1_plus_l2"] > 0.75

    # The paper's staleness effect: the L4 share grows with N.
    l4_shares = [row["l4"] for row in result.rows]
    assert l4_shares[-1] > l4_shares[0]
    assert all(share < 0.1 for share in l4_shares)
