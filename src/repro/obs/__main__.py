"""CLI for the observability layer.

Usage::

    python -m repro.obs report                       # live demo dashboard
    python -m repro.obs report --servers 30 --ops 4000 \\
        --trace-out spans.jsonl --prom-out metrics.prom
    python -m repro.obs assemble spans.jsonl         # causal trace trees
    python -m repro.obs assemble a.jsonl b.jsonl --chains-only --json
    python -m repro.obs slo                          # demo SLO report

``report`` spins up a G-HBA cluster, replays a mixed workload with
tracing enabled, and renders the operator dashboard (health summary +
hotspot ranking).  ``--trace-out`` writes the raw span stream as JSONL;
``--prom-out`` writes a Prometheus text-exposition snapshot.

``assemble`` stitches one or more span JSONL files (the ``--trace-out``
output of any harness) into per-mutation causal trees, linking
``parent_id -> span_id`` across components; ``--chains-only`` keeps only
traces with the complete write-back mutation chain.

``slo`` replays a gateway demo workload (lookups, write-back mutations,
a staleness audit) and evaluates the default service-level objectives
with multi-window burn rates.

``pipeline`` drives a write-back gateway *cohort* through a seeded
mutation workload with an injected mid-run crash, then assembles and
prints the resulting causal trees — the end-to-end demo of the
five-hop ``wb_enqueue -> wb_flush -> wb_arbitrate -> inval_mint ->
inval_apply`` chain, with a flight-recorder dump at the crash.
"""

from __future__ import annotations

import argparse
import json

from repro.obs.assemble import (
    assemble_traces,
    find_chains,
    render_forest,
    tree_to_dict,
)
from repro.obs.export import (
    SnapshotSeries,
    read_spans_jsonl,
    write_prometheus,
    write_spans_jsonl,
)
from repro.obs.report import render_report
from repro.obs.slo import SLOEngine, render_slo_report
from repro.obs.trace import CollectingTracer


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _build_cluster(args, tracer):
    """A populated demo cluster with a Zipf-ish mixed workload applied."""
    # Imported here so `repro.obs` stays importable without `repro.core`
    # fully loaded (and to keep module import light for library users).
    from repro.gateway.scenario import build_fleet
    from repro.metadata.attributes import FileMetadata
    from repro.sim.rng import make_rng

    known = [f"/obs/dir{i % 16}/file{i}" for i in range(args.files)]
    cluster = build_fleet(
        args.servers,
        args.files,
        args.seed,
        known,
        group_size=args.group_size,
        tracer=tracer,
    )
    rng = make_rng(args.seed ^ 0x0B5)
    inode = len(known)
    for index in range(args.ops):
        roll = rng.random()
        if roll < 0.04:
            # Churn: create a file whose replicas stay stale for a while.
            path = f"/obs/churn/{index}"
            cluster.insert_file(FileMetadata(path=path, inode=inode))
            inode += 1
            known.append(path)
        elif roll < 0.08:
            cluster.query(f"/obs/missing/{index}")  # negative lookup
        else:
            # Zipf-ish skew: favor a hot prefix of the namespace.
            limit = max(1, int(len(known) * (0.1 if roll < 0.6 else 1.0)))
            cluster.query(known[rng.randrange(limit)])
    cluster.synchronize_replicas()
    return cluster


def _cmd_report(args) -> int:
    # Fail on unwritable output paths before the (possibly long) workload.
    for out_path in (args.trace_out, args.prom_out):
        if out_path:
            try:
                with open(out_path, "a", encoding="utf-8"):
                    pass
            except OSError as exc:
                print(f"error: cannot write {out_path}: {exc}")
                return 2
    tracer = CollectingTracer()
    cluster = _build_cluster(args, tracer)
    print(render_report(cluster, top=args.top))
    if args.trace_out:
        written = write_spans_jsonl(tracer.finished_spans(), args.trace_out)
        print(f"\nwrote {written} spans to {args.trace_out}")
    if args.prom_out:
        size = write_prometheus(cluster.metrics, args.prom_out)
        print(f"wrote {size} bytes of Prometheus exposition to {args.prom_out}")
    return 0


def _cmd_assemble(args) -> int:
    spans = []
    for path in args.files:
        try:
            spans.extend(read_spans_jsonl(path))
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}")
            return 2
    trees = assemble_traces(spans, trace_id=args.trace_id)
    if args.chains_only:
        trees = find_chains(trees)
    if args.json:
        print(
            json.dumps(
                [tree_to_dict(tree) for tree in trees],
                sort_keys=True,
                indent=2,
            )
        )
    else:
        print(render_forest(trees), end="")
        complete = find_chains(trees)
        print(
            f"\n{len(trees)} trace(s), "
            f"{len(complete)} with a complete mutation chain"
        )
    return 0


def _cmd_slo(args) -> int:
    # Lazy imports: same rule as _build_cluster.
    from repro.core.cluster import GHBACluster
    from repro.core.config import GHBAConfig
    from repro.gateway.client import GatewayConfig, MetadataClient
    from repro.gateway.staleness import StalenessAuditor
    from repro.sim.rng import make_rng

    config = GHBAConfig(seed=args.seed)
    cluster = GHBACluster(args.servers, config, seed=args.seed)
    paths = [f"/slo/dir{i % 8}/file{i}" for i in range(args.files)]
    cluster.populate(paths)
    cluster.synchronize_replicas(force=True)
    gateway = MetadataClient(
        cluster,
        GatewayConfig(writeback=True, rate_per_s=args.ops / 2.0, burst=64),
    )
    auditor = StalenessAuditor(cluster, 0.5, metrics=gateway.metrics)
    series = SnapshotSeries()
    rng = make_rng(args.seed ^ 0x510)
    now = 0.0
    snapshot_every = max(1, args.ops // 20)
    for index in range(args.ops):
        now += 0.01
        roll = rng.random()
        if roll < 0.05:
            path = f"/slo/new/{index}"
            gateway.create(path, now=now, tenant=f"t{index % 2}")
            auditor.note_mutation("create", path, now)
        else:
            response = gateway.lookup(
                paths[rng.randrange(len(paths))],
                now=now,
                tenant=f"t{index % 2}",
            )
            auditor.audit(response, now)
        gateway.pump(now)
        if index % snapshot_every == 0:
            series.append(now, gateway.metrics.snapshot())
    gateway.flush_barrier(now + 1.0)
    series.append(now + 1.0, gateway.metrics.snapshot())
    engine = SLOEngine(gateway.metrics)
    results = engine.evaluate(series)
    print(render_slo_report(results), end="")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(
                [result.as_dict() for result in results],
                handle,
                sort_keys=True,
                indent=2,
            )
        print(f"\nwrote SLO verdicts to {args.json_out}")
    return 0 if all(result.ok for result in results) else 1


def _cmd_pipeline(args) -> int:
    # Lazy imports: same rule as _build_cluster.
    from repro.core.cluster import GHBACluster
    from repro.core.config import GHBAConfig
    from repro.faults.plan import FaultPlan
    from repro.faults.injector import PlanFaultInjector
    from repro.gateway import CohortConfig, GatewayConfig, GatewayCohort
    from repro.obs.export import span_to_dict
    from repro.obs.flight import FlightRecorderHub
    from repro.sim.rng import make_rng

    tracer = CollectingTracer()
    flight = FlightRecorderHub(dump_dir=args.flight_dir)
    config = GHBAConfig(seed=args.seed)
    cluster = GHBACluster(
        args.servers, config, seed=args.seed, tracer=tracer
    )
    paths = [f"/pipe/dir{i % 8}/file{i}" for i in range(args.files)]
    cluster.populate(paths)
    cluster.synchronize_replicas(force=True)
    injector = PlanFaultInjector(
        FaultPlan(seed=args.seed), metrics=cluster.metrics, flight=flight
    )
    cohort = GatewayCohort(
        cluster,
        2,
        CohortConfig(gateway=GatewayConfig(lease_ttl_s=60.0, writeback=True)),
        faults=injector,
        tracer=tracer,
        flight=flight,
    )
    left, right = cohort.members
    rng = make_rng(args.seed ^ 0x91E)
    now = 0.0
    crash_at = args.mutations // 2
    for index in range(args.mutations):
        now += 0.05
        injector.advance(now)
        victim = paths[rng.randrange(len(paths))]
        right.lookup(victim, now)  # warm the peer lease the drop will kill
        if rng.random() < 0.3:
            left.create(f"/pipe/new/{index}", now)
        else:
            left.delete(victim, now)
        if index == crash_at:
            # The injected fault: the peer crashes mid-run, which dumps
            # the flight recorder and exercises the suspicion path.
            injector.silence(1)
        if index == crash_at + 2:
            injector.restore(1)
        cohort.flush_barrier(now)
        cohort.step(now)
    cohort.flush_barrier(now + 1.0)
    cohort.step(now + 1.0)

    spans = [span_to_dict(span) for span in tracer.finished_spans()]
    if args.trace_out:
        written = write_spans_jsonl(tracer.finished_spans(), args.trace_out)
        print(f"wrote {written} spans to {args.trace_out}\n")
    trees = assemble_traces(spans)
    complete = find_chains(trees)
    shown = complete[: args.top]
    print(render_forest(shown), end="")
    print(
        f"\n{len(trees)} trace(s), {len(complete)} with the complete "
        f"mutation chain (showing {len(shown)})"
    )
    print(f"flight recorder: {len(flight.dumps)} dump(s)")
    return 0 if complete and flight.dumps else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    report = subparsers.add_parser(
        "report", help="run a demo workload and render the dashboard"
    )
    report.add_argument("--servers", type=_positive_int, default=20)
    report.add_argument("--group-size", type=_positive_int, default=5)
    report.add_argument("--files", type=_positive_int, default=2_000)
    report.add_argument("--ops", type=_positive_int, default=3_000)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--top", type=_positive_int, default=5)
    report.add_argument("--trace-out", default=None, metavar="FILE.jsonl")
    report.add_argument("--prom-out", default=None, metavar="FILE.prom")
    report.set_defaults(func=_cmd_report)

    assemble = subparsers.add_parser(
        "assemble", help="stitch span JSONL files into causal trace trees"
    )
    assemble.add_argument("files", nargs="+", metavar="FILE.jsonl")
    assemble.add_argument("--trace-id", type=int, default=None)
    assemble.add_argument(
        "--chains-only",
        action="store_true",
        help="keep only traces with the full write-back mutation chain",
    )
    assemble.add_argument("--json", action="store_true")
    assemble.set_defaults(func=_cmd_assemble)

    slo = subparsers.add_parser(
        "slo", help="run a gateway demo workload and evaluate default SLOs"
    )
    slo.add_argument("--servers", type=_positive_int, default=12)
    slo.add_argument("--files", type=_positive_int, default=500)
    slo.add_argument("--ops", type=_positive_int, default=2_000)
    slo.add_argument("--seed", type=int, default=0)
    slo.add_argument("--json-out", default=None, metavar="FILE.json")
    slo.set_defaults(func=_cmd_slo)

    pipeline = subparsers.add_parser(
        "pipeline",
        help="demo the five-hop causal chain through a write-back cohort",
    )
    pipeline.add_argument("--servers", type=_positive_int, default=8)
    pipeline.add_argument("--files", type=_positive_int, default=200)
    pipeline.add_argument("--mutations", type=_positive_int, default=40)
    pipeline.add_argument("--seed", type=int, default=7)
    pipeline.add_argument("--top", type=_positive_int, default=2)
    pipeline.add_argument("--trace-out", default=None, metavar="FILE.jsonl")
    pipeline.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help="write flight-recorder dumps here (dumped at the crash)",
    )
    pipeline.set_defaults(func=_cmd_pipeline)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
