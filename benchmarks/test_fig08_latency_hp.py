"""Figure 8: average latency vs. ops under the HP trace, three memory sizes.

Paper: with ample memory (1.2 GB) HBA slightly outperforms G-HBA; as the
budget shrinks (800 MB, 500 MB) HBA's latency climbs steeply (replica array
spills to disk) while G-HBA stays low.  Memory budgets here are fractions of
HBA's working set (see DESIGN.md §2 and EXPERIMENTS.md for the mapping).
"""

from repro.experiments import fig08_10
from repro.experiments.fig08_10 import final_latency

FRACTIONS = (1.25, 0.75, 0.45)


def test_fig08_latency_hp(run_once):
    result = run_once(
        lambda: fig08_10.run(
            "HP",
            memory_fractions=FRACTIONS,
            num_servers=24,
            group_size=6,
            num_files=6_000,
            num_ops=18_000,
        )
    )
    print()
    print(result.format())

    ample, medium, tight = FRACTIONS
    # Ample memory: HBA resolves everything locally and wins (slightly).
    assert final_latency(result, "hba", ample) <= (
        final_latency(result, "ghba", ample) * 1.5
    )
    # Tight memory: the crossover — HBA degrades hard, G-HBA stays low.
    assert final_latency(result, "hba", tight) > (
        2.0 * final_latency(result, "ghba", tight)
    )
    # HBA's own degradation across budgets is monotone and severe.
    hba_finals = [final_latency(result, "hba", f) for f in FRACTIONS]
    assert hba_finals[0] < hba_finals[1] < hba_finals[2]
    assert hba_finals[2] > 5 * hba_finals[0]
    # G-HBA's latency under the tightest budget grows with op count far
    # more gently than HBA's.
    ghba_rows = result.filter(scheme="ghba", memory_fraction=tight)
    hba_rows = result.filter(scheme="hba", memory_fraction=tight)
    ghba_growth = ghba_rows[-1]["avg_latency_ms"] - ghba_rows[0]["avg_latency_ms"]
    hba_growth = hba_rows[-1]["avg_latency_ms"] - hba_rows[0]["avg_latency_ms"]
    assert hba_growth > ghba_growth
