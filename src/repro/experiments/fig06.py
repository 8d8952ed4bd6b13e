"""Figure 6: normalized throughput of G-HBA vs. maximum group size M.

The paper plots Gamma (Equation 2) against M for N = 30 and N = 100 under
the HP, INS and RES workloads, finding optima at M = 6 (HP/INS, N = 30),
M = 5 (RES, N = 30) and M = 9 (all traces, N = 100).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.optimal import TRACE_MODELS, throughput_curve
from repro.experiments.common import ExperimentResult

#: Optima the paper reports, for shape assertions.
PAPER_OPTIMA = {
    ("HP", 30): 6,
    ("INS", 30): 6,
    ("RES", 30): 5,
    ("HP", 100): 9,
    ("INS", 100): 9,
    ("RES", 100): 9,
}


def run(
    server_counts: Sequence[int] = (30, 100),
    max_group_size: int = 15,
) -> ExperimentResult:
    """Regenerate the Figure 6 series: Gamma(M) per trace and N."""
    result = ExperimentResult(
        name="fig06",
        title="Figure 6: normalized throughput vs. group size M",
        params={
            "server_counts": list(server_counts),
            "max_group_size": max_group_size,
        },
    )
    for trace, model in TRACE_MODELS.items():
        for num_servers in server_counts:
            curve = throughput_curve(num_servers, model, max_group_size)
            best_m = max(curve, key=lambda pair: pair[1])[0]
            for m, gamma in curve:
                result.rows.append(
                    {
                        "trace": trace,
                        "num_servers": num_servers,
                        "group_size": m,
                        "gamma": gamma,
                        "optimal_m": best_m,
                        "paper_optimal_m": PAPER_OPTIMA.get(
                            (trace, num_servers)
                        ),
                    }
                )
    return result


def main() -> None:
    result = run()
    print(result.format())
    print()
    seen = set()
    for row in result.rows:
        key = (row["trace"], row["num_servers"])
        if key in seen:
            continue
        seen.add(key)
        print(
            f"{row['trace']:>4} N={row['num_servers']:<4} optimal M = "
            f"{row['optimal_m']} (paper: {row['paper_optimal_m']})"
        )


if __name__ == "__main__":
    main()
