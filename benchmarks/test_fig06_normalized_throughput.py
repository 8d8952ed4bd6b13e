"""Figure 6: normalized throughput vs. group size M.

Paper: Gamma(M) is unimodal with optima M=6 (HP/INS) and M=5 (RES) at
N=30, and M=9 for all three traces at N=100.
"""

from repro.experiments import fig06
from repro.experiments.fig06 import PAPER_OPTIMA


def test_fig06_normalized_throughput(run_once):
    result = run_once(
        lambda: fig06.run(server_counts=(30, 100), max_group_size=15)
    )
    print()
    for (trace, n), paper_m in sorted(PAPER_OPTIMA.items()):
        rows = result.filter(trace=trace, num_servers=n)
        measured = rows[0]["optimal_m"]
        print(f"{trace:>4} N={n:<4} optimal M={measured} (paper {paper_m})")
        # Band: within +/-1 of every published optimum.
        assert abs(measured - paper_m) <= 1

    # Unimodal shape: Gamma rises to the peak then falls.
    for trace in ("HP", "INS", "RES"):
        for n in (30, 100):
            gammas = [
                row["gamma"] for row in result.filter(trace=trace, num_servers=n)
            ]
            peak = gammas.index(max(gammas))
            assert all(gammas[i] <= gammas[i + 1] for i in range(peak))
            assert all(
                gammas[i] >= gammas[i + 1]
                for i in range(peak, len(gammas) - 1)
            )

    # RES's heavier offered load pulls its N=30 optimum below HP's.
    res30 = result.filter(trace="RES", num_servers=30)[0]["optimal_m"]
    hp30 = result.filter(trace="HP", num_servers=30)[0]["optimal_m"]
    assert res30 <= hp30
