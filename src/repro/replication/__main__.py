"""CLI for the replication subsystem.

    PYTHONPATH=src python -m repro.replication drill \\
        --servers 3 --files 300 --ops 1200 --seed 11 --chaos

runs the full disaster-recovery drill: seeded workload on a primary
fleet with CDC capture, async shipping to a standby, a primary kill at
``--kill-at`` of the trace, standby promotion with epoch fencing, a
divergence + RPO audit, and a redirected workload against the promoted
fleet.  Exit status 0 only when the audit is clean (no divergence, no
acked-mutation loss, fencing holds, RPO within ``--rpo-bound``).
Parameters without a flag are defaults of
:class:`~repro.replication.drill.DrillSpec`.
"""

from __future__ import annotations

import argparse
import sys

from repro.replication.drill import DrillSpec, run_drill
from repro.scenario import parse_spec, run_scenario


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.replication",
        description="Cross-cluster replication drills.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    drill = sub.add_parser(
        "drill",
        help="kill the primary mid-trace, promote the standby, audit",
    )
    drill.add_argument(
        "--transport",
        choices=("inproc", "tcp"),
        default="inproc",
        help="wire the standby over in-process queues or real TCP",
    )
    drill.add_argument("--servers", type=int, default=3)
    drill.add_argument("--files", type=int, default=300)
    drill.add_argument("--ops", type=int, default=1200)
    drill.add_argument("--seed", type=int, default=11)
    drill.add_argument(
        "--kill-at",
        type=float,
        default=0.7,
        dest="kill_at",
        help="fraction of --ops at which the primary dies (default 0.7)",
    )
    drill.add_argument(
        "--ship-every",
        type=int,
        default=16,
        dest="ship_every",
        help="ship a batch every N operations (default 16)",
    )
    drill.add_argument(
        "--chaos",
        action="store_true",
        help="seeded fault plan on the ship path: drops/delays/duplicates",
    )
    drill.add_argument(
        "--redirect-ops",
        type=int,
        default=200,
        dest="redirect_ops",
        help="post-promotion ops against the promoted fleet",
    )
    drill.add_argument(
        "--rpo-bound",
        type=int,
        default=-1,
        dest="rpo_bound",
        help="fail if more than this many unacked mutations were lost "
        "(-1: report only)",
    )
    drill.add_argument(
        "--json", default=None, help="write BENCH-style stats to this file"
    )
    args = parser.parse_args(argv)
    fields = {
        name: value
        for name, value in vars(args).items()
        if name in DrillSpec.__dataclass_fields__
    }
    spec = parse_spec(parser, DrillSpec, **fields)
    return run_scenario(
        "replication", run_drill, spec, json_path=args.json, json_key="replication"
    )


if __name__ == "__main__":
    sys.exit(main())
