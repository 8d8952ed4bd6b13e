"""Figures 8-10: average query latency vs. operation count, HBA vs. G-HBA.

The paper replays the intensified HP (Fig. 8), RES (Fig. 9) and INS
(Fig. 10) traces against both schemes at three per-MDS memory sizes each.
With ample memory HBA wins slightly (everything resolves locally); as
memory shrinks, HBA's N-replica array spills to disk and its latency grows
steeply with accumulated metadata, while G-HBA's ``(N - M')/M'`` replicas
stay memory-resident and its latency remains low and flat.

We reproduce the mechanism at laptop scale (DESIGN.md §2): metadata
accumulates as the trace touches new files, each MDS's resident fraction
(budget over footprint) shrinks, and Bloom probes against spilled replicas
pay disk latency.
Memory budgets are expressed as fractions of the end-of-run working set so
the experiment is scale-free; EXPERIMENTS.md maps them onto the paper's
absolute MB figures.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from repro.baselines.hba import HBACluster
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.experiments.common import SEED, ExperimentResult, SeriesRecorder
from repro.metadata.attributes import FileMetadata
from repro.traces.profiles import PROFILES
from repro.traces.records import MetadataOp
from repro.traces.synthetic import SyntheticTraceGenerator

#: Latency windows per run.
WINDOWS = 12

#: The paper's memory configurations per figure (MB).
PAPER_MEMORY_MB = {
    "HP": (1200, 800, 500),
    "RES": (800, 500, 300),
    "INS": (900, 600, 400),
}


def _estimate_working_set_bytes(
    config: GHBAConfig,
    num_servers: int,
    num_files: int,
    num_ops: int,
    replicas: int,
    active_fraction: float,
) -> int:
    """Approximate end-of-run per-MDS bytes: replicas + LRU + metadata.

    Metadata accumulates for every file the trace touches: the active subset
    of the population plus the files CREATE operations add over the run
    (roughly 4 % of arrivals for the HP mix; the estimate only needs to be
    in the right ballpark for the budget fractions to be meaningful).
    """
    filter_bytes = config.filter_bytes
    touched_files = num_files * active_fraction + 0.05 * num_ops
    metadata_bytes = int(touched_files / num_servers * 290)
    # One counting filter per home MDS inside the L1 array (4-bit counters).
    lru_bytes = num_servers * (config.lru_filter_bits * 4 // 8)
    return (replicas + 1) * filter_bytes + lru_bytes + metadata_bytes


def run_one(
    scheme: str,
    profile_name: str,
    memory_fraction: float,
    num_servers: int = 30,
    group_size: int = 6,
    num_files: int = 9_000,
    num_ops: int = 30_000,
) -> List[Dict[str, object]]:
    """Replay one trace against one scheme at one memory budget.

    ``memory_fraction`` is the per-MDS budget as a fraction of the scheme's
    *end-of-run* working set under HBA (so both schemes face the same
    absolute budget, as in the paper).  Returns windowed series rows.
    """
    if scheme not in ("ghba", "hba"):
        raise ValueError(f"unknown scheme {scheme!r}")
    profile = PROFILES[profile_name]
    generator = SyntheticTraceGenerator(profile, num_files, seed=SEED)
    config = GHBAConfig(
        max_group_size=group_size,
        bits_per_file=16.0,
        expected_files_per_mds=max(256, int(num_files / num_servers * 1.5)),
        lru_capacity=max(64, num_files // 20),
        lru_filter_bits=1 << 10,
        seed=SEED,
    )
    # Budget is anchored to HBA's working set so "500 MB" means the same
    # thing to both schemes.
    hba_working_set = _estimate_working_set_bytes(
        config,
        num_servers,
        num_files,
        num_ops,
        replicas=num_servers - 1,
        active_fraction=profile.active_file_fraction,
    )
    budget = int(hba_working_set * memory_fraction)
    config = dataclasses.replace(config, memory_budget_bytes=budget)
    if scheme == "ghba":
        cluster: object = GHBACluster(num_servers, config, seed=SEED)
    else:
        cluster = HBACluster(num_servers, config, seed=SEED)

    series = SeriesRecorder(window_width=max(1, num_ops // WINDOWS))
    inserted: Dict[str, int] = {}
    next_inode = 0
    sync_interval = max(1, num_ops // 20)
    for index, record in enumerate(generator.generate(num_ops)):
        path = record.path
        if record.op is MetadataOp.RENAME:
            continue  # rename handling is exercised in the namespace tests
        if path not in inserted:
            # First touch: the metadata is created now (cold-start
            # population — this is what makes the working set grow).
            home = cluster.insert_file(
                FileMetadata(path=path, inode=next_inode)
            )
            inserted[path] = home
            next_inode += 1
            continue
        if record.op is MetadataOp.UNLINK:
            continue
        result = cluster.query(path)
        series.record(index, result.latency_ms)
        if index % sync_interval == 0:
            cluster.synchronize_replicas(force=False)
    rows = []
    for point in series.finish():
        rows.append(
            {
                "trace": profile_name,
                "scheme": scheme,
                "memory_fraction": memory_fraction,
                "ops": int(point.x),
                "avg_latency_ms": point.mean,
                "queries": point.count,
            }
        )
    return rows


def run(
    profile_name: str = "HP",
    memory_fractions: Sequence[float] = (1.25, 0.75, 0.45),
    num_servers: int = 30,
    group_size: int = 6,
    num_files: int = 9_000,
    num_ops: int = 30_000,
) -> ExperimentResult:
    """Regenerate one of Figures 8-10 (pick the trace via ``profile_name``).

    The three ``memory_fractions`` stand in for the paper's three absolute
    memory sizes (large / medium / small); 1.25 comfortably fits HBA's
    working set, 0.45 forces heavy HBA spill.
    """
    figure = {"HP": "fig08", "RES": "fig09", "INS": "fig10"}[profile_name]
    result = ExperimentResult(
        name=figure,
        title=(
            f"Figure {figure[-2:]}: avg latency vs. ops under {profile_name} "
            "(HBA vs. G-HBA)"
        ),
        params={
            "profile": profile_name,
            "memory_fractions": list(memory_fractions),
            "num_servers": num_servers,
            "group_size": group_size,
            "num_files": num_files,
            "num_ops": num_ops,
            "paper_memory_mb": PAPER_MEMORY_MB[profile_name],
        },
    )
    for fraction in memory_fractions:
        for scheme in ("hba", "ghba"):
            result.rows.extend(
                run_one(
                    scheme,
                    profile_name,
                    fraction,
                    num_servers=num_servers,
                    group_size=group_size,
                    num_files=num_files,
                    num_ops=num_ops,
                )
            )
    return result


def final_latency(result: ExperimentResult, scheme: str, fraction: float) -> float:
    """Mean latency of the last window for one (scheme, memory) series."""
    rows = result.filter(scheme=scheme, memory_fraction=fraction)
    if not rows:
        raise ValueError(f"no rows for scheme={scheme} fraction={fraction}")
    return rows[-1]["avg_latency_ms"]


def main() -> None:
    for trace in ("HP", "RES", "INS"):
        result = run(trace)
        print(result.format())
        print()


if __name__ == "__main__":
    main()
