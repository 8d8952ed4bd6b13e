"""Table 5: relative memory overhead per MDS, normalized to BFA8.

Paper values: BFA16 = 2.0 exactly; HBA = 1.0002..1.0010 (BFA8 + a tiny LRU
array); G-HBA = 0.2002 at N=20 falling to 0.1121 at N=100 — roughly
(theta + 1)/N at the optimal M.
"""

import pytest

from repro.experiments import table05
from repro.experiments.table05 import PAPER_GHBA


def test_table05_memory_overhead(run_once):
    result = run_once(
        lambda: table05.run(
            server_counts=(20, 40, 60, 80, 100),
            files_per_server=2_000,
        )
    )
    print()
    print(result.format(float_digits=4))

    for row in result.rows:
        # BFA16 doubles BFA8 exactly.
        assert row["bfa16"] == pytest.approx(2.0, rel=0.01)
        # HBA = full mirror + small LRU: just above 1.
        assert 1.0 < row["hba"] < 1.1
        # G-HBA lands near the paper's value (same M-per-N policy; our
        # optimal M differs from the paper's by at most 1, which shifts
        # the ratio slightly).
        assert row["ghba"] == pytest.approx(row["paper_ghba"], rel=0.25)
        assert row["ghba"] < 0.25

    # Overhead falls with N (the paper's key scaling claim).  The trend is
    # monotone up to a small tolerance: when the optimal M stalls between
    # two N values (both 80 and 100 use M=9) the balanced group partition
    # can nudge the mean theta up by a fraction of a replica.
    ghba_column = [row["ghba"] for row in result.rows]
    for earlier, later in zip(ghba_column, ghba_column[1:]):
        assert later <= earlier * 1.10
    assert ghba_column[-1] < ghba_column[0] * 0.75
