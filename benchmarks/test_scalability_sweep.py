"""Scalability sweep: the 'ultra large-scale' asymptotics, measured.

HBA's per-MDS cost grows linearly with N on every axis; G-HBA's grows
~ sqrt(N) (theta = (N - M*)/M* with M* ~ sqrt(N)), so the gap widens with
scale — the paper's core argument for exabyte-scale systems.
"""

from repro.experiments import scalability


def test_scalability_sweep(run_once):
    result = run_once(lambda: scalability.run(server_counts=(20, 40, 80, 160)))
    print()
    print(result.format())
    rows = result.rows
    first, last = rows[0], rows[-1]
    growth = last["num_servers"] / first["num_servers"]  # 8x

    # HBA scales linearly on every axis.
    assert last["hba_probes_per_lookup"] == growth * (
        first["hba_probes_per_lookup"]
    )
    assert last["hba_update_messages"] / first["hba_update_messages"] > (
        growth * 0.9
    )
    assert last["hba_join_replicas"] / first["hba_join_replicas"] > growth * 0.9

    # G-HBA scales sublinearly (≈ sqrt): an 8x system costs well under
    # 8x per MDS on every axis.
    for column in (
        "ghba_probes_per_lookup",
        "ghba_update_messages",
        "ghba_join_replicas",
        "ghba_bytes_per_mds",
    ):
        ratio = last[column] / first[column]
        assert ratio < growth * 0.75, (column, ratio)

    # The absolute gap widens with N on every axis.
    for n_index in range(len(rows)):
        row = rows[n_index]
        assert row["ghba_probes_per_lookup"] < row["hba_probes_per_lookup"]
        assert row["ghba_update_messages"] < row["hba_update_messages"]
        assert row["ghba_bytes_per_mds"] < row["hba_bytes_per_mds"]
    gap_first = first["hba_bytes_per_mds"] / first["ghba_bytes_per_mds"]
    gap_last = last["hba_bytes_per_mds"] / last["ghba_bytes_per_mds"]
    assert gap_last > gap_first
