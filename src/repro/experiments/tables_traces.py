"""Tables 3-4: statistics of the intensified HP / INS / RES workloads.

The paper scales RES by TIF=100, INS by TIF=30 and HP by TIF=40.  We
regenerate the same *structure* at laptop scale: a base synthetic trace per
profile is intensified by a (configurable, smaller) TIF, and the table
reports per-operation counts, users, hosts and active files — the same
columns as the paper — plus the invariant the paper states: the op-mix
histogram is preserved while intensity multiplies.
"""

from __future__ import annotations


from repro.experiments.common import SEED, ExperimentResult
from repro.traces.profiles import PROFILES
from repro.traces.records import MetadataOp
from repro.traces.scaling import intensify
from repro.traces.synthetic import generate_trace
from repro.traces.workloads import compute_stats

#: The paper's TIF per trace (Tables 3-4).
PAPER_TIF = {"RES": 100, "INS": 30, "HP": 40}


def run(
    base_files: int = 2_000,
    base_ops: int = 5_000,
    tif_scale: float = 0.1,
) -> ExperimentResult:
    """Regenerate the Table 3-4 rows at ``tif_scale`` times the paper's TIF.

    Parameters
    ----------
    base_files / base_ops:
        Size of each base (unintensified) synthetic trace.
    tif_scale:
        Fraction of the paper's TIF to apply (1.0 = the paper's factors;
        the default 0.1 keeps CI runs fast).
    """
    result = ExperimentResult(
        name="tables_traces",
        title="Tables 3-4: intensified workload statistics",
        params={
            "base_files": base_files,
            "base_ops": base_ops,
            "tif_scale": tif_scale,
        },
    )
    for name, profile in PROFILES.items():
        tif = max(1, int(PAPER_TIF[name] * tif_scale))
        base = generate_trace(profile, base_files, base_ops, seed=SEED)
        scaled = intensify(base, tif)
        base_stats = compute_stats(base)
        stats = compute_stats(scaled)
        result.rows.append(
            {
                "trace": name,
                "tif": tif,
                "hosts": stats.num_hosts,
                "users": stats.num_users,
                "open": stats.count(MetadataOp.OPEN),
                "close": stats.count(MetadataOp.CLOSE),
                "stat": stats.count(MetadataOp.STAT),
                "active_files": stats.num_active_files,
                "total_ops": stats.total_ops,
                "base_total_ops": base_stats.total_ops,
                "stat_fraction": stats.op_fraction(MetadataOp.STAT),
                "base_stat_fraction": base_stats.op_fraction(MetadataOp.STAT),
            }
        )
    return result


def main() -> None:
    print(run().format())


if __name__ == "__main__":
    main()
