"""Figure 11: replicas migrated when one MDS joins, vs. system size.

Paper: HBA migrates N replicas (full mirror to the newcomer); hash-based
placement migrates up to N - M' (growing with N); G-HBA migrates only
(N - M')/(M' + 1) to the newcomer.
"""

from repro.experiments import fig11

SERVER_COUNTS = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)


def test_fig11_migration(run_once):
    result = run_once(lambda: fig11.run(server_counts=SERVER_COUNTS))
    print()
    print(result.format())

    for row in result.rows:
        n = row["num_servers"]
        assert row["hba"] == n
        for trace in ("hp", "ins", "res"):
            hash_migrated = row[f"hash_{trace}"]
            ghba_migrated = row[f"ghba_{trace}"]
            # Ordering: G-HBA < hash placement < HBA (the figure's stack).
            assert ghba_migrated < row["hba"]
            assert hash_migrated <= row["hba"]
            if n >= 20:
                assert ghba_migrated < hash_migrated

    # Slope: HBA and hash placement grow ~linearly with N while G-HBA's
    # cost follows (N - M')/(M' + 1) for the joined group — bounded by the
    # smallest group a split can produce (M' = floor(M/2)).
    first, last = result.rows[0], result.rows[-1]
    assert last["hba"] == 10 * first["hba"]
    assert last["hash_hp"] > 4 * first["hash_hp"]
    from repro.core.optimal import TRACE_MODELS, optimal_group_size

    for row in result.rows:
        n = row["num_servers"]
        m = optimal_group_size(n, TRACE_MODELS["HP"], max_group_size=20)
        smallest_group = max(1, m // 2)
        bound = (n - smallest_group) / (smallest_group + 1)
        assert row["ghba_hp"] <= bound + 1
