"""Tables 3-4: intensified workload statistics (regeneration + claims)."""

import pytest

from repro.experiments import tables_traces
from repro.experiments.tables_traces import PAPER_TIF


def test_tables_3_and_4_scaled_traces(run_once):
    result = run_once(
        lambda: tables_traces.run(
            base_files=1_500,
            base_ops=4_000,
            tif_scale=0.2,
        )
    )
    print()
    print(result.format())
    by_trace = {row["trace"]: row for row in result.rows}
    assert set(by_trace) == {"HP", "INS", "RES"}

    # TIF scale-up multiplies intensity exactly while preserving the op mix
    # (the paper's Section 4 invariant).
    for trace, row in by_trace.items():
        assert row["tif"] == max(1, int(PAPER_TIF[trace] * 0.2))
        assert row["total_ops"] == row["tif"] * row["base_total_ops"]
        assert row["stat_fraction"] == pytest.approx(
            row["base_stat_fraction"], abs=1e-9
        )

    # Table 3's signature: RES is stat-dominated, far beyond INS.
    assert by_trace["RES"]["stat_fraction"] > 0.75
    assert by_trace["RES"]["stat_fraction"] > by_trace["INS"]["stat_fraction"]
    assert by_trace["INS"]["stat_fraction"] > by_trace["HP"]["stat_fraction"]

    # Open and close counts are near-equal in every trace (Tables 3-4).
    for row in by_trace.values():
        assert row["close"] <= row["open"]
        assert row["close"] >= row["open"] * 0.7
