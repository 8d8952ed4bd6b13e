"""Workload profiles reproducing the published shape of HP, INS and RES.

The operation mixes come from the paper's Tables 3-4:

- **RES** (research workload, TIF=100): open 497.2M, close 558.2M,
  stat 7983.9M — overwhelmingly stat-dominated (~88 % stat).
- **INS** (instructional workload, TIF=30): open 1196.37M, close 1215.33M,
  stat 4076.58M — roughly 18/19/63.
- **HP** (HP file-system trace, TIF=40): 94.7M requests over 4.0M files
  with 0.969M active; per-op splits are not published, so we use a mix
  between the two (open-heavy relative to RES).

Population parameters (hosts, users) likewise follow the tables, expressed
as ratios so generators can scale them to any target size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.traces.records import MetadataOp


@dataclass(frozen=True)
class TraceProfile:
    """Shape parameters of one synthetic workload.

    Attributes
    ----------
    name:
        Workload name ("HP", "INS", "RES").
    op_mix:
        Relative weights of metadata operations.  OPEN weight implies an
        equal stream of CLOSE records (closes are generated by pairing, not
        drawn independently), matching the near-equal open/close counts in
        the tables.
    zipf_alpha:
        Skew of file popularity.
    active_file_fraction:
        Fraction of the file population touched by the trace (HP Table 4:
        0.969M active / 4.0M total ≈ 0.24).
    mean_dir_depth:
        Average directory nesting depth of generated paths.
    files_per_directory:
        Mean directory fan-out.
    users_per_1k_files / hosts_per_1k_files:
        Population ratios used to assign uid/host fields.
    default_tif:
        The intensifying factor the paper uses for this trace.
    """

    name: str
    op_mix: Dict[MetadataOp, float]
    zipf_alpha: float
    active_file_fraction: float
    mean_dir_depth: int
    files_per_directory: int
    users_per_1k_files: float
    hosts_per_1k_files: float
    default_tif: int

    def __post_init__(self) -> None:
        if not self.op_mix:
            raise ValueError("op_mix must be non-empty")
        if any(weight < 0 for weight in self.op_mix.values()):
            raise ValueError("op_mix weights must be non-negative")
        if sum(self.op_mix.values()) <= 0:
            raise ValueError("op_mix weights must sum to a positive value")
        if not 0 < self.active_file_fraction <= 1:
            raise ValueError(
                f"active_file_fraction must be in (0, 1], got {self.active_file_fraction}"
            )


# Weights below are proportional to the Table 3/4 operation counts
# (open/close handled by pairing; small create/unlink/rename streams added
# to exercise namespace mutation, as the original traces contain them).
RES_PROFILE = TraceProfile(
    name="RES",
    op_mix={
        MetadataOp.OPEN: 497.2,
        MetadataOp.CLOSE: 558.2,
        MetadataOp.STAT: 7983.9,
        MetadataOp.CREATE: 12.0,
        MetadataOp.UNLINK: 8.0,
        MetadataOp.RENAME: 2.0,
    },
    zipf_alpha=0.95,
    active_file_fraction=0.35,
    mean_dir_depth=5,
    files_per_directory=16,
    users_per_1k_files=3.0,     # 5 000 users / ~1.6M base files
    hosts_per_1k_files=0.8,     # 1 300 hosts
    default_tif=100,
)

INS_PROFILE = TraceProfile(
    name="INS",
    op_mix={
        MetadataOp.OPEN: 1196.37,
        MetadataOp.CLOSE: 1215.33,
        MetadataOp.STAT: 4076.58,
        MetadataOp.CREATE: 20.0,
        MetadataOp.UNLINK: 15.0,
        MetadataOp.RENAME: 3.0,
    },
    zipf_alpha=0.85,
    active_file_fraction=0.45,
    mean_dir_depth=4,
    files_per_directory=24,
    users_per_1k_files=6.0,     # 9 780 users
    hosts_per_1k_files=0.35,    # 570 hosts
    default_tif=30,
)

HP_PROFILE = TraceProfile(
    name="HP",
    op_mix={
        MetadataOp.OPEN: 30.0,
        MetadataOp.CLOSE: 30.0,
        MetadataOp.STAT: 32.0,
        MetadataOp.CREATE: 4.0,
        MetadataOp.UNLINK: 3.0,
        MetadataOp.RENAME: 1.0,
    },
    zipf_alpha=1.05,
    active_file_fraction=0.24,  # 0.969M active of 4.0M files (Table 4)
    mean_dir_depth=6,
    files_per_directory=12,
    users_per_1k_files=0.05,    # 207 accounts / 4.0M files
    hosts_per_1k_files=0.01,
    default_tif=40,
)

PROFILES: Dict[str, TraceProfile] = {
    "HP": HP_PROFILE,
    "INS": INS_PROFILE,
    "RES": RES_PROFILE,
}
