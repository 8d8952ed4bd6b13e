"""Figure 7: optimal group size M as a function of the number of MDSs.

The paper sweeps N in {10, 30, 60, 100, 150, 200} and reports optimal M of
roughly {3, 6, 7, 9, 11, 14} (M/N ratios 0.3, 0.2, 0.11, 0.09, 0.073,
0.07), observing that M is insensitive to the workload and grows slowly
with N.
"""

from __future__ import annotations

from typing import Dict

from repro.core.optimal import TRACE_MODELS, optimal_group_size
from repro.experiments.common import ExperimentResult

#: The paper's Figure 7 optima (the x-axis annotation gives M/N ratios),
#: one per N the figure sweeps.
PAPER_OPTIMA = {10: 3, 30: 6, 60: 7, 100: 9, 150: 11, 200: 14}
#: The largest group size searched.
MAX_GROUP_SIZE = 25


def run() -> ExperimentResult:
    """Regenerate Figure 7: optimal M per trace and N."""
    result = ExperimentResult(
        name="fig07",
        title="Figure 7: optimal group size vs. number of MDSs",
        params={"server_counts": list(PAPER_OPTIMA)},
    )
    for num_servers in PAPER_OPTIMA:
        row: Dict[str, object] = {"num_servers": num_servers}
        for trace, model in TRACE_MODELS.items():
            best = optimal_group_size(num_servers, model, MAX_GROUP_SIZE)
            row[f"optimal_m_{trace.lower()}"] = best
            row[f"ratio_{trace.lower()}"] = best / num_servers
        row["paper_optimal_m"] = PAPER_OPTIMA.get(num_servers)
        result.rows.append(row)
    return result


def main() -> None:
    print(run().format())


if __name__ == "__main__":
    main()
