"""CLI for the observability layer.

Usage::

    python -m repro.obs report                       # live demo dashboard
    python -m repro.obs report --servers 30 --ops 4000 \\
        --trace-out spans.jsonl --prom-out metrics.prom
    python -m repro.obs assemble spans.jsonl         # causal trace trees
    python -m repro.obs assemble a.jsonl b.jsonl --chains-only
    python -m repro.obs slo                          # demo SLO report
    python -m repro.obs pipeline --seed 7 --trace-out pipe.jsonl

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

``slo`` and ``pipeline`` are gated scenarios of the shell
(:func:`repro.scenario.run_scenario`): a failed gate exits 1.
Parameters without a flag are defaults of :class:`SLOSpec` /
:class:`PipelineSpec`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.faults.injector import PlanFaultInjector
from repro.faults.plan import FaultPlan
from repro.gateway import CohortConfig, GatewayCohort
from repro.gateway.client import GatewayConfig, MetadataClient
from repro.gateway.staleness import StalenessAuditor
from repro.metadata.attributes import FileMetadata
from repro.obs.assemble import (
    assemble_traces,
    find_chains,
    render_forest,
)
from repro.obs.export import (
    SnapshotSeries,
    read_spans_jsonl,
    span_to_dict,
    write_prometheus,
    write_spans_jsonl,
)
from repro.obs.report import render_report
from repro.obs.slo import SLOEngine, render_slo_report
from repro.obs.trace import CollectingTracer
from repro.scenario import (
    ScenarioResult,
    build_fleet,
    parse_spec,
    require_positive,
    run_scenario,
)
from repro.sim.rng import make_rng


def _build_cluster(args, tracer):
    """A populated demo cluster with a Zipf-ish mixed workload applied."""
    known = [f"/obs/dir{i % 16}/file{i}" for i in range(args.files)]
    cluster = build_fleet(args.servers, args.files, args.seed, known, tracer=tracer)
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
    print(render_forest(trees), end="")
    complete = find_chains(trees)
    print(
        f"\n{len(trees)} trace(s), "
        f"{len(complete)} with a complete mutation chain"
    )
    return 0


@dataclass(frozen=True)
class SLOSpec:
    """The SLO demo: fleet, namespace and workload size, seed."""

    servers: int = 12
    files: int = 500
    ops: int = 2_000
    seed: int = 0

    def __post_init__(self) -> None:
        require_positive(self, "servers", "files", "ops")


def slo(spec: SLOSpec, tracer=None, flight=None) -> ScenarioResult:
    """A gateway demo workload (lookups, write-back mutations, a
    staleness audit) against the default objectives; a failure per
    objective out of compliance."""
    config = GHBAConfig(seed=spec.seed)
    cluster = GHBACluster(spec.servers, config, seed=spec.seed)
    paths = [f"/slo/dir{i % 8}/file{i}" for i in range(spec.files)]
    cluster.populate(paths)
    cluster.synchronize_replicas(force=True)
    gateway = MetadataClient(
        cluster,
        GatewayConfig(writeback=True, rate_per_s=spec.ops / 2.0, burst=64),
    )
    auditor = StalenessAuditor(cluster, 0.5, metrics=gateway.metrics)
    series = SnapshotSeries()
    rng = make_rng(spec.seed ^ 0x510)
    now = 0.0
    snapshot_every = max(1, spec.ops // 20)
    for index in range(spec.ops):
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
    results = SLOEngine(gateway.metrics).evaluate(series)
    failures = [f"{r.objective.name} out of compliance" for r in results if not r.ok]
    return ScenarioResult({}, render_slo_report(results).rstrip("\n"), failures)


#: Mutations of the pipeline demo; the peer crashes after half of them.
PIPELINE_MUTATIONS = 40


@dataclass(frozen=True)
class PipelineSpec:
    """The causal-pipeline demo; ``top`` complete chains are printed."""

    servers: int = 8
    files: int = 200
    seed: int = 7
    top: int = 2

    def __post_init__(self) -> None:
        require_positive(self, "servers", "files", "top")


def pipeline(spec: PipelineSpec, tracer, flight) -> ScenarioResult:
    """A write-back cohort through a seeded mutation workload with a
    mid-run peer crash; gates on at least one complete five-hop chain in
    ``tracer``'s spans and a dump in ``flight`` (run it ``observed``)."""
    config = GHBAConfig(seed=spec.seed)
    cluster = GHBACluster(spec.servers, config, seed=spec.seed, tracer=tracer)
    paths = [f"/pipe/dir{i % 8}/file{i}" for i in range(spec.files)]
    cluster.populate(paths)
    cluster.synchronize_replicas(force=True)
    injector = PlanFaultInjector(
        FaultPlan(seed=spec.seed), metrics=cluster.metrics, flight=flight
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
    rng = make_rng(spec.seed ^ 0x91E)
    now = 0.0
    crash_at = PIPELINE_MUTATIONS // 2
    for index in range(PIPELINE_MUTATIONS):
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

    trees = assemble_traces([span_to_dict(span) for span in tracer.finished_spans()])
    complete = find_chains(trees)
    shown = complete[: spec.top]
    failures = []
    if not complete:
        failures.append("no trace holds the complete mutation chain")
    if not flight.dumps:
        failures.append("the crash left no flight-recorder dump")
    return ScenarioResult(
        {},
        f"{render_forest(shown)}\n{len(trees)} trace(s), {len(complete)} with "
        f"the complete mutation chain (showing {len(shown)})\n"
        f"flight recorder: {len(flight.dumps)} dump(s)",
        failures,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    report = subparsers.add_parser(
        "report", help="run a demo workload and render the dashboard"
    )
    report.add_argument("--servers", type=int, default=20)
    report.add_argument("--files", type=int, default=2_000)
    report.add_argument("--ops", type=int, default=3_000)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--top", type=int, default=5)
    report.add_argument("--trace-out", default=None, metavar="FILE.jsonl")
    report.add_argument("--prom-out", default=None, metavar="FILE.prom")

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

    slo_cmd = subparsers.add_parser(
        "slo", help="run a gateway demo workload and evaluate default SLOs"
    )
    slo_cmd.add_argument("--servers", type=int, default=12)
    slo_cmd.add_argument("--files", type=int, default=500)
    slo_cmd.add_argument("--ops", type=int, default=2_000)
    slo_cmd.add_argument("--seed", type=int, default=0)

    pipeline_cmd = subparsers.add_parser(
        "pipeline",
        help="demo the five-hop causal chain through a write-back cohort",
    )
    pipeline_cmd.add_argument("--servers", type=int, default=8)
    pipeline_cmd.add_argument("--files", type=int, default=200)
    pipeline_cmd.add_argument("--seed", type=int, default=7)
    pipeline_cmd.add_argument("--top", type=int, default=2)
    pipeline_cmd.add_argument("--trace-out", default=None, metavar="FILE.jsonl")
    pipeline_cmd.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help="write flight-recorder dumps here (dumped at the crash)",
    )

    args = parser.parse_args(argv)
    if args.command == "report":
        try:
            require_positive(args, "servers", "files", "ops", "top")
        except ValueError as exc:
            parser.error(str(exc))
        return _cmd_report(args)
    if args.command == "assemble":
        return _cmd_assemble(args)
    if args.command == "slo":
        spec = parse_spec(
            parser, SLOSpec,
            servers=args.servers, files=args.files, ops=args.ops, seed=args.seed,
        )
        return run_scenario("slo", slo, spec)
    spec = parse_spec(
        parser, PipelineSpec,
        servers=args.servers, files=args.files, seed=args.seed, top=args.top,
    )
    return run_scenario(
        "pipeline", pipeline, spec,
        trace_out=args.trace_out, flight_dir=args.flight_dir, observed=True,
    )


if __name__ == "__main__":
    raise SystemExit(main())
