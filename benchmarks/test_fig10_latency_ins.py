"""Figure 10: average latency vs. ops under the INS trace.

Paper: same mechanism as Figures 8-9 at memory sizes 900/600/400 MB.
"""

from repro.experiments import fig08_10
from repro.experiments.fig08_10 import final_latency

FRACTIONS = (1.25, 0.7, 0.45)


def test_fig10_latency_ins(run_once):
    result = run_once(
        lambda: fig08_10.run(
            "INS",
            memory_fractions=FRACTIONS,
            num_servers=24,
            group_size=6,
            num_files=6_000,
            num_ops=18_000,
        )
    )
    print()
    print(result.format())
    ample, _, tight = FRACTIONS
    assert final_latency(result, "hba", ample) <= (
        final_latency(result, "ghba", ample) * 1.5
    )
    assert final_latency(result, "hba", tight) > (
        2.0 * final_latency(result, "ghba", tight)
    )
    hba_finals = [final_latency(result, "hba", f) for f in FRACTIONS]
    assert hba_finals == sorted(hba_finals)
