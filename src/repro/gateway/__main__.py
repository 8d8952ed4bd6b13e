"""CLI for the gateway tier.

Usage::

    python -m repro.gateway bench --seed 7
    python -m repro.gateway bench --servers 20 --files 4000 --ops 6000 \\
        --profile HP --chaos --json gateway.json
    python -m repro.gateway bench --cohort 4 --json cohort.json
    python -m repro.gateway bench --writeback --json wb.json
    python -m repro.gateway bench --tenants 4 --json tenants.json

``bench`` replays a synthetic :mod:`repro.traces` workload through one
of four scenarios of the same engine (:mod:`repro.gateway.scenario`) and
exits nonzero when one of the scenario's gates fails:

- *(default)* **shield** — one gateway vs a mirror fleet queried
  directly; gate: zero stale reads, zero home mismatches
  (:func:`~repro.gateway.scenarios.run_shield`; ``--chaos`` adds a
  seeded fault plan);
- ``--cohort N`` — N multicast-coherent gateways vs N independent ones
  under a seeded fault plan; gate: zero staleness-bound violations
  (:func:`~repro.gateway.scenarios.run_cohort`);
- ``--writeback`` — write-back vs write-through on one trace with MDS
  crash windows; gate: >= 1.5x fewer mutation RPCs, zero divergence
  from the acknowledgement oracle
  (:func:`~repro.gateway.scenarios.run_writeback`; ``--chaos`` adds
  message loss);
- ``--tenants N`` — fair vs global vs solo admission at every
  trace-rate point; gates: Jain >= 0.9, nobody starved, noisy tenant
  capped, quiet tenants isolated, bit-identical repeat
  (:mod:`repro.gateway.tenant_bench`).

Everything runs on seeded RNGs and virtual time, so the same arguments
always print byte-identical reports.  Stats are written (beside a
``_meta`` provenance block) only where ``--json`` says.  Parameters
without a flag are defaults of :class:`~repro.gateway.scenario.
ScenarioSpec`.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional

from repro.gateway.scenario import ScenarioSpec
from repro.gateway.scenarios import run_cohort, run_shield, run_writeback
from repro.gateway.tenant_bench import run_tenants
from repro.scenario import parse_spec, run_scenario
from repro.traces.profiles import PROFILES

#: scenario name -> (function, key the JSON stats nest under, defaults
#: that differ from :class:`ScenarioSpec`'s).  Cohort mode wants a longer
#: trace (compulsory misses — every member must see a path once —
#: amortize over more re-references) and long leases (the whole point of
#: the invalidation protocol is that they stay safe); tenant mode replays
#: the trace 2 + 1 + N times per sweep point, so it trims the namespace.
SCENARIOS = {
    "gateway": (run_shield, None, {}),
    "cohort": (run_cohort, None, {"ops": 20_000, "lease_ttl_s": 30.0}),
    "writeback": (run_writeback, "gateway_writeback", {}),
    "tenants": (run_tenants, "gateway_tenants", {"files": 1_500, "ops": 4_000}),
}


def _cmd_bench(parser, args) -> int:
    if args.cohort is not None:
        name = "cohort"
    elif args.tenants is not None:
        name = "tenants"
    elif args.writeback:
        name = "writeback"
    else:
        name = "gateway"
    scenario, json_key, defaults = SCENARIOS[name]
    given: Dict[str, object] = {
        field: tuple(value) if isinstance(value, list) else value
        for field, value in vars(args).items()
        if field in ScenarioSpec.__dataclass_fields__ and value is not None
    }
    spec = parse_spec(parser, ScenarioSpec, **{**defaults, **given})
    return run_scenario(
        name,
        scenario,
        spec,
        json_path=args.json,
        json_key=json_key,
        trace_out=args.trace_out,
        flight_dir=args.flight_dir,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway", description=__doc__
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    bench = subparsers.add_parser(
        "bench",
        help="replay a trace through a gateway scenario; exit nonzero "
        "when one of its gates fails",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--servers", type=int, default=None,
        help="MDS count (default: 20)",
    )
    bench.add_argument(
        "--files", type=int, default=None,
        help="namespace size (default: 3000; tenant mode: 1500)",
    )
    bench.add_argument(
        "--ops", type=int, default=None,
        help="trace length (default: 5000; cohort mode: 20000 so "
        "compulsory misses amortize; tenant mode: 4000)",
    )
    bench.add_argument(
        "--profile", choices=sorted(PROFILES), default=None,
        help="workload profile: op mix + Zipf skew (default: HP)",
    )
    bench.add_argument(
        "--chaos", action="store_true",
        help="shield / write-back: run under a seeded fault plan",
    )
    bench.add_argument(
        "--cohort", type=int, default=None, metavar="N",
        help="cohort scenario: N multicast-coherent gateways vs N "
        "independent gateways (always under a seeded fault plan)",
    )
    bench.add_argument(
        "--writeback", action="store_true",
        help="write-back scenario: buffered/batched mutations vs "
        "write-through on one trace (with deterministic MDS crash windows)",
    )
    bench.add_argument(
        "--tenants", type=int, default=None, metavar="N",
        help="tenant scenario: N Zipf-mixed tenants through fair vs "
        "global vs solo deployments at every trace-rate sweep point",
    )
    bench.add_argument(
        "--trace-rate", type=float, default=None,
        help="cohort / tenants: trace arrival rate in ops per virtual "
        "second (default: 150; lower stretches re-reference intervals "
        "past the staleness bound)",
    )
    bench.add_argument(
        "--tenant-zipf", type=float, default=None,
        help="tenants: skew of tenant popularity (default: 2.0; tenant "
        "u0 is the noisy neighbour; higher = noisier)",
    )
    bench.add_argument(
        "--tenant-rates", type=float, nargs="+", default=None,
        metavar="RATE",
        help="tenants: explicit trace-rate sweep points "
        "(default: --trace-rate and 1000)",
    )
    bench.add_argument(
        "--flush-max-pending", type=int, default=None,
        help="write-back: flush a home's bucket at this many pending "
        "(default: 16)",
    )
    bench.add_argument(
        "--flush-age-s", type=float, default=None,
        help="write-back: flush once the oldest pending is this old "
        "(default: 0.25)",
    )
    bench.add_argument(
        "--json", default=None, metavar="FILE.json",
        help="write the stats (plus a _meta provenance block) here",
    )
    bench.add_argument(
        "--trace-out", default=None, metavar="FILE.jsonl",
        help="record spans (with causal write-back context) as JSONL",
    )
    bench.add_argument(
        "--flight-dir", default=None, metavar="DIR",
        help="fault forensics: write flight-recorder dumps here on "
        "crash windows and gate failures",
    )
    return _cmd_bench(parser, parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
