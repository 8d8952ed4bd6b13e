"""``python -m bench`` — run, compare and self-check the benchmark.

``run``        every workload (or ``--workload``): end-to-end metrics from
               untraced passes, per-layer metrics from a traced pass.
               With ``--workload W --seed N --seconds S --trace 0|1`` it is
               the command BENCHMARK.json names: the last line of output is
               one JSON object holding that run's metrics.
``compare``    two results files under BENCHMARK.json's bounds.
``selfcheck``  two sets of runs of the same code, then ``compare``.
"""

from __future__ import annotations

import argparse
import json
import sys
from statistics import median
from typing import Any, Dict, List, Optional

from bench import use_checkout_sources

use_checkout_sources()

from bench import compare as compare_mod  # noqa: E402
from bench import runner  # noqa: E402
from bench.layers import LAYER_METRICS  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402
from bench.workloads.base import NOMINAL_SECONDS, PASSES, REPLAYS  # noqa: E402

#: ``--quick``: a fiftieth of the op counts, one pass of one execution.
QUICK_DIVISOR = 50
WORKING_SEED = 7
#: Runs per set of ``selfcheck``, seeds ``seed`` onwards (the driver's ten).
SELFCHECK_RUNS = 10


def _print_end_to_end(result: Dict[str, Any]) -> None:
    print(
        f"[{result['workload']}] seed {result['seed']}: {result['passes']} pass(es) x "
        f"{result['replays']} execution(s) of {result['ops']} ops "
        f"(one op = one {WORKLOADS[result['workload']].op_unit}) "
        f"in {result['calls']} timed calls ({result['beyond_p99']} samples beyond p99); "
        f"each call's fastest execution; digest {result['digest'][:16]}"
    )
    for name, unit in runner.END_TO_END:
        each = result["per_execution"].get(name)
        detail = "  (executions: " + ", ".join(f"{v:.5g}" for v in each) + ")" if each else ""
        print(f"  {name:<16} {result['metrics'][name]:>14.6g} {unit:<4}{detail}")
    print(
        f"  {'failed_share':<16} {result['failed_share']:>14.6g}      "
        f"({result['failed']} of {result['attempted']} checked answers)"
    )


def _print_traced(result: Dict[str, Any]) -> None:
    print(
        f"[{result['workload']}] traced pass: {result['spans']} spans "
        f"(first {result['spans_written']} -> {result['spans_file']}); "
        f"named spans cover {result['covered_share']:.1%} of the timed wall; "
        f"digest {result['digest'][:16]}"
    )
    print("  layer share of timed wall (self time): " + ", ".join(
        f"{name} {share:.1%}" for name, share in result["ledger"].items() if share >= 0.0005
    ))
    if result["silent_families"]:
        print(f"  span families that saw no call (run too short): {result['silent_families']}")
    units = {metric.name: metric.unit for metric in LAYER_METRICS}
    for name, value in result["metrics"].items():
        print(f"  {name:<46} {value:>14.6g} {units[name]:<6} (n={result['ops']} ops)")


def _result_line(result: Dict[str, Any], units: Dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in result["metrics"].items()
            },
        }
    )


def cmd_run(args: argparse.Namespace) -> int:
    seconds = args.seconds / QUICK_DIVISOR if args.quick else args.seconds
    passes, replays = (1, 1) if args.quick else (PASSES, REPLAYS)
    names = [args.workload] if args.workload else list(WORKLOADS)
    meta = runner.run_metadata(args.seed, seconds)
    print(f"bench: {json.dumps(meta, sort_keys=True)}")
    print(
        "bench: closed loop, one client (wire_mixed: against 2 MDS processes over "
        "loopback TCP); op counts are fixed by --seconds, not by the clock"
    )
    run: Dict[str, Any] = {}
    layers: Dict[str, Any] = {}
    line: Optional[str] = None
    try:
        for name in names:
            if args.trace in (None, 0):
                result = runner.run_end_to_end(name, args.seed, seconds, passes, replays)
                _print_end_to_end(result)
                run[name] = result
                line = _result_line(result, dict(runner.END_TO_END))
            if args.trace in (None, 1):
                # A single traced execution is compared with a single untraced
                # one (the middle one), not with the fastest-execution figure.
                rate = median(run[name]["per_execution"]["ops_per_s"]) if name in run else None
                traced = runner.run_traced(name, args.seed, seconds, rate, strict=not args.quick)
                _print_traced(traced)
                layers[name] = traced
                line = _result_line(traced, {m.name: m.unit for m in LAYER_METRICS})
    except runner.BenchError as exc:
        print(f"bench: FAILED: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"_meta": meta, "runs": [run], "layers": layers}, handle, indent=1)
            handle.write("\n")
        print(f"bench: results -> {args.out}")
    if args.workload and args.trace is not None:
        print(line)
    return 0


def run_set(names: List[str], seed: int, seconds: float, label: str) -> Dict[str, Any]:
    """``SELFCHECK_RUNS`` end-to-end runs of each workload."""
    out: List[Dict[str, Any]] = []
    for index in range(SELFCHECK_RUNS):
        run: Dict[str, Any] = {}
        for name in names:
            result = runner.run_end_to_end(name, seed + index, seconds, PASSES, REPLAYS)
            metrics = ", ".join(f"{k}={v:.5g}" for k, v in result["metrics"].items())
            print(
                f"[{label} run {index + 1}/{SELFCHECK_RUNS}] {name} seed {seed + index}: {metrics}",
                flush=True,
            )
            run[name] = result
        out.append(run)
    return {"_meta": runner.run_metadata(seed, seconds), "runs": out}


def cmd_selfcheck(args: argparse.Namespace) -> int:
    try:
        names = [args.workload] if args.workload else list(WORKLOADS)
        sets = [run_set(names, args.seed, args.seconds, label) for label in ("A", "B")]
    except runner.BenchError as exc:
        print(f"bench: FAILED: {exc}", file=sys.stderr)
        return 1
    paths = []
    for label, results in zip(("A", "B"), sets):
        path = runner.out_path(f"selfcheck-seed{args.seed}-{label}.json")
        path.write_text(json.dumps(results, indent=1) + "\n")
        paths.append(str(path))
    rows, bad = compare_mod.compare(*sets)
    summary = runner.out_path(f"selfcheck-seed{args.seed}-summary.json")
    summary.write_text(json.dumps({"_meta": sets[0]["_meta"], "rows": rows}, indent=1) + "\n")
    print(f"bench: sets -> {paths[0]} {paths[1]}; summary -> {summary}")
    print(compare_mod.render(rows))
    return 1 if bad else 0


def cmd_compare(args: argparse.Namespace) -> int:
    with open(args.a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(args.b, encoding="utf-8") as handle:
        b = json.load(handle)
    rows, bad = compare_mod.compare(a, b)
    print(compare_mod.render(rows))
    return 1 if bad else 0


def cmd_pass(args: argparse.Namespace) -> int:
    report = runner.run_pass(
        args.workload, args.seed, args.seconds, bool(args.trace), args.replays
    )
    print(json.dumps(report))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, workload_required: bool) -> None:
        p.add_argument("--workload", choices=list(WORKLOADS), required=workload_required)
        p.add_argument("--seed", type=int, default=WORKING_SEED)
        p.add_argument(
            "--seconds",
            type=float,
            default=float(NOMINAL_SECONDS),
            help="timed work per run, split over its executions; sets the op counts",
        )

    run = sub.add_parser("run", help="measure; prints every metric by name and unit")
    common(run, workload_required=False)
    run.add_argument("--trace", type=int, choices=(0, 1), default=None,
                     help="0: end-to-end only, 1: per-layer only, omitted: both")
    run.add_argument("--quick", action="store_true",
                     help=f"1/{QUICK_DIVISOR} of the op counts, one execution (a smoke test)")
    run.add_argument("--out", default=None, help="write the results as JSON (for compare)")
    run.set_defaults(func=cmd_run)

    one = sub.add_parser("pass", help="(internal) one pass in this interpreter")
    common(one, workload_required=True)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument("--replays", type=int, default=1)
    one.set_defaults(func=cmd_pass)

    cmp_parser = sub.add_parser(
        "compare", help="apply BENCHMARK.json's bounds to two results files"
    )
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    cmp_parser.set_defaults(func=cmd_compare)

    check = sub.add_parser(
        "selfcheck",
        help=f"two sets of {SELFCHECK_RUNS} runs of the same code, compared",
    )
    common(check, workload_required=False)
    check.set_defaults(func=cmd_selfcheck)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
