"""Rename / resize migration: pathname hashing vs. G-HBA.

Quantifies Table 1 and Section 1.1: hash placement must migrate
~(1 - 1/N) of a renamed subtree's records (and of *all* records on a
server-count change), while G-HBA re-keys in place and migrates zero
metadata — only (N - M')/(M' + 1) filter replicas on a join.
"""

from repro.experiments import rename_cost


def test_rename_and_resize_cost(run_once):
    result = run_once(lambda: rename_cost.run(num_servers=20, group_size=5))
    print()
    print(result.format())
    rename_row = next(
        row for row in result.rows if row["operation"] == "rename_directory"
    )
    resize_row = next(
        row for row in result.rows if row["operation"] == "add_server"
    )

    # Hash placement migrates ~(1 - 1/N) = 0.95 of the renamed records...
    assert rename_row["hash_fraction"] > 0.75
    # ...and of the entire file population on a resize.
    assert resize_row["hash_fraction"] > 0.75
    # G-HBA migrates zero metadata in both cases.
    assert rename_row["ghba_migrated"] == 0
    assert resize_row["ghba_migrated"] == 0
    # Its reconfiguration cost is a handful of filter replicas, not files.
    assert resize_row["ghba_replicas_moved"] < resize_row["records"] / 10
