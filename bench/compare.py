"""Compare two sets of runs under the bounds BENCHMARK.json fixes.

A results file (``python -m bench run --out``, or one set written by
``selfcheck``) holds a list of runs, each mapping workload → end-to-end
result.  A metric's sample is the value each run printed, one per run: a
file with a single run has no spread to show, so judge a change on sets.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from bench import ROOT
from bench.stats import quartiles, spread


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def samples(results: Dict[str, Any], workload: str, metric: str) -> List[float]:
    return [run[workload]["metrics"][metric] for run in results["runs"] if workload in run]


def verdict_for(
    a: List[float], b: List[float], better: str, bound: float
) -> Tuple[str, float, float]:
    """(``ok`` | ``worse`` | ``unresolved``, worsening, widest spread).

    ``worsening`` is how much worse B's median is than A's, as a share of
    A's median (negative when B is better).
    """
    a_med, b_med = quartiles(a)[1], quartiles(b)[1]
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b_med - a_med) / a_med if a_med else 0.0
    widest = max(spread(a), spread(b))
    if widest > bound:
        every_b_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return ("ok" if every_b_better else "unresolved", worsening, widest)
    return ("worse" if worsening > bound else "ok", worsening, widest)


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[Dict[str, Any]], bool]:
    """Rows for every (workload, metric), and whether anything is worse."""
    spec = load_spec()
    rows: List[Dict[str, Any]] = []
    bad = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if not any(workload in run for run in a["runs"]) or not any(
            workload in run for run in b["runs"]
        ):
            continue
        for metric in spec["end_to_end"]:
            sample_a = samples(a, workload, metric["name"])
            sample_b = samples(b, workload, metric["name"])
            verdict, worsening, widest = verdict_for(
                sample_a, sample_b, metric["better"], metric["bound"]
            )
            bad = bad or verdict == "worse"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    "a": quartiles(sample_a),
                    "b": quartiles(sample_b),
                    "worsening": worsening,
                    "spread": widest,
                    "verdict": verdict,
                }
            )
        # Counts and digests are exact: equal seeds must agree to the bit.
        exact_a = _exact_by_seed(a, workload)
        exact_b = _exact_by_seed(b, workload)
        shared = sorted(set(exact_a) & set(exact_b))
        differing = [seed for seed in shared if exact_a[seed] != exact_b[seed]]
        bad = bad or bool(differing)
        rows.append(
            {
                "workload": workload,
                "metric": "digest+counts",
                "verdict": "worse" if differing else ("ok" if shared else "no shared seed"),
                "seeds": shared,
                "differing": differing,
            }
        )
    return rows, bad


def _exact_by_seed(results: Dict[str, Any], workload: str) -> Dict[int, Tuple[Any, ...]]:
    return {
        run[workload]["seed"]: tuple(
            run[workload][key] for key in ("digest", "ops", "calls", "attempted", "failed")
        )
        for run in results["runs"]
        if workload in run
    }


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<18} {'metric':<14} {'A q1/median/q3':>34} {'B q1/median/q3':>34} "
        f"{'B worse by':>10} {'spread':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        if "a" not in row:
            detail = f"seeds {row['seeds']}" + (
                f", differing {row['differing']}" if row["differing"] else ""
            )
            lines.append(f"{row['workload']:<18} {row['metric']:<14} {detail:<95} {row['verdict']}")
            continue
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
        lines.append(
            f"{row['workload']:<18} {row['metric']:<14} {fmt(row['a']):>34} {fmt(row['b']):>34} "
            f"{row['worsening']:>+10.1%} {row['spread']:>7.1%} {row['bound']:>6.0%}  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)
