"""CLI for the fault-injection layer.

Usage::

    python -m repro.faults soak --seed 7 --duration-s 5
    python -m repro.faults soak --seed 7 --duration-s 5 --json out.json
    python -m repro.faults drill --servers 9 --seed 0

``soak`` drives the threaded prototype cluster through a seeded chaos
schedule (drops, delays, duplicates, a group partition and one
crash/restart) and prints the survival report; the exit code is nonzero
when any query was lost, resolved falsely negative, or the retry/drop
accounting failed to reconcile.  ``drill`` replays crash schedules
against the simulator's heartbeat monitor and checks detection latency.
Both run through the scenario shell (:func:`repro.scenario.run_scenario`);
parameters without a flag are defaults of
:class:`~repro.faults.soak.SoakConfig` / :class:`DetectionSpec`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.faults.drill import run_drill
from repro.faults.soak import SoakConfig, run_soak
from repro.scenario import ScenarioResult, parse_spec, run_scenario


@dataclass(frozen=True)
class DetectionSpec:
    """A heartbeat detection drill: fleet size and seed."""

    servers: int = 9
    seed: int = 0

    def __post_init__(self) -> None:
        # The drill crashes two servers; only from three on is a live
        # group peer left to witness both.
        if self.servers < 3:
            raise ValueError(f"servers must be at least 3, got {self.servers}")


def soak(config: SoakConfig, tracer=None, flight=None) -> ScenarioResult:
    report = run_soak(config, tracer=tracer, flight=flight)
    return ScenarioResult(report.to_dict(), report.render(), report.failures)


def drill(spec: DetectionSpec, tracer=None, flight=None) -> ScenarioResult:
    report = run_drill(num_servers=spec.servers, seed=spec.seed)
    failures = [] if report.within_bound else ["detection outside its bound"]
    return ScenarioResult({}, report.render(), failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults", description=__doc__
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    soak_cmd = subparsers.add_parser(
        "soak", help="run the chaos soak and print the survival report"
    )
    soak_cmd.add_argument("--seed", type=int, default=7)
    soak_cmd.add_argument("--duration-s", type=float, default=5.0)
    soak_cmd.add_argument("--files", type=int, default=240)
    soak_cmd.add_argument("--json", default=None, metavar="FILE.json")
    soak_cmd.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE.jsonl",
        help="record per-lookup spans (with causal context) as JSONL",
    )
    soak_cmd.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help="write flight-recorder dumps here on every crash",
    )

    drill_cmd = subparsers.add_parser(
        "drill", help="measure heartbeat failure-detection latency"
    )
    drill_cmd.add_argument("--servers", type=int, default=9)
    drill_cmd.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.command == "soak":
        config = parse_spec(
            parser, SoakConfig,
            seed=args.seed, duration_s=args.duration_s, num_files=args.files,
        )
        return run_scenario(
            "soak", soak, config, json_path=args.json,
            trace_out=args.trace_out, flight_dir=args.flight_dir,
        )
    spec = parse_spec(parser, DetectionSpec, servers=args.servers, seed=args.seed)
    return run_scenario("drill", drill, spec)


if __name__ == "__main__":
    raise SystemExit(main())
