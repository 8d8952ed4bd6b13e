"""The switchover drill: kill the primary mid-trace, promote, audit.

``python -m repro.replication drill`` drives one end-to-end disaster
recovery, deterministically (every parameter is a :class:`DrillSpec`
field; the CLI exposes those some CI step, test or document passes):

1. build a primary fleet, populate it, and bootstrap a standby with a
   full ``REPL_SYNC`` checkpoint;
2. run a seeded create/delete/rename workload against the primary with
   the CDC capture attached, shipping every ``ship_every`` operations
   (optionally through a seeded fault plan — drops, delays, duplicate
   deliveries);
3. **kill** the primary at ``kill_at`` of the trace (it simply stops:
   no final flush, exactly what a real fleet loss looks like);
4. promote the standby (``REPL_PROMOTE``), prove the old epoch is
   fenced with a late ship, and audit the promoted replica against the
   replayed acked change stream (:class:`DivergenceAuditor`);
5. redirect a lookup/mutation workload at the promoted fleet through a
   fresh gateway and re-verify against a dict oracle.

:func:`run_drill` is a scenario of the shell
(:func:`repro.scenario.run_scenario`): every un-acked-but-claimed
mutation, post-promotion divergence, failed fencing probe, redirect
mismatch, RPO above ``rpo_bound`` or standby that will not stop is a
failure, and the shell turns any into exit status 1.  The report holds
only virtual-time/counter data — two same-seed runs are byte-identical,
chaos included (the CI determinism gate diffs them).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.faults.injector import PlanFaultInjector
from repro.faults.plan import FaultPlan
from repro.gateway.client import MetadataClient, Outcome
from repro.metadata.attributes import FileMetadata
from repro.metadata.namespace import is_under
from repro.obs.registry import MetricsRegistry
from repro.obs.report import replication_report
from repro.obs.slo import SLOEngine, replication_objectives
from repro.prototype.transport import InProcessTransport
from repro.replication.audit import (
    DivergenceAuditor,
    State,
    diff_states,
    snapshot_state,
)
from repro.replication.cdc import ChangeCapture
from repro.replication.controller import ReplicationController
from repro.replication.ship import (
    PROMOTER_SENDER,
    ReplicationShipper,
    fence_probe,
    promote_standby,
)
from repro.replication.standby import StandbyNode
from repro.scenario import ScenarioResult, build_fleet, require_positive

#: Reserved node id of the standby endpoint on the drill's transport
#: (far above any MDS id).
STANDBY_ID = 9001
#: Virtual operations per second of the primary's workload (the clock step).
RATE_PER_S = 500.0
#: Most change entries per shipped batch.
BATCH_MAX = 64


@dataclass(frozen=True)
class DrillSpec:
    """Everything that determines a switchover drill (same spec, same
    report)."""

    seed: int = 11
    #: ``"inproc"`` queues or ``"tcp"`` sockets between shipper and standby.
    transport: str = "inproc"
    servers: int = 3
    files: int = 300
    #: Primary workload length; the primary dies at ``kill_at`` of it.
    ops: int = 1200
    #: Top-level directories, the units a rename moves.
    dirs: int = 8
    kill_at: float = 0.7
    #: Ship a batch every this many operations.
    ship_every: int = 16
    #: Seeded drops, delays and duplicates on the ship path.
    chaos: bool = False
    #: Operations against the promoted fleet.
    redirect_ops: int = 200
    #: Fail when more unacked mutations than this were lost (-1: report only).
    rpo_bound: int = -1

    def __post_init__(self) -> None:
        if self.transport not in ("inproc", "tcp"):
            raise ValueError(f"transport must be inproc or tcp, got {self.transport!r}")
        require_positive(self, "servers", "files", "ops", "dirs", "ship_every")
        if not 0 < self.kill_at <= 1:
            raise ValueError(f"kill_at must be in (0, 1], got {self.kill_at}")
        if self.redirect_ops < 0:
            raise ValueError(f"redirect_ops must be >= 0, got {self.redirect_ops}")


def _apply_to_oracle(
    oracle: State, op: str, path: str, new_path: str, home: int, inode: int
) -> None:
    """Mirror one primary mutation into the drill's dict oracle."""
    if op == "create":
        oracle[path] = (home, inode)
    elif op == "delete":
        oracle.pop(path, None)
    else:  # rename: cluster-wide re-prefix (every home re-keys its own)
        victims = [p for p in oracle if is_under(p, path)]
        for p in victims:
            oracle[new_path + p[len(path):]] = oracle.pop(p)


def run_drill(spec: DrillSpec, tracer=None, flight=None) -> ScenarioResult:
    """One switchover drill.  The standby, and over TCP both transports,
    are torn down on every exit path; a failed stop is a failure."""
    rng = random.Random(spec.seed)
    registry = MetricsRegistry()
    standby_registry = MetricsRegistry()
    injector = None
    if spec.chaos:
        plan = FaultPlan(
            seed=spec.seed, drop_rate=0.05, delay_rate=0.05, duplicate_rate=0.05
        )
        injector = PlanFaultInjector(plan, metrics=registry)
    failures: List[str] = []
    transports = []  # the TCP transports this drill opened
    standby = None
    try:
        # The standby serves its mailbox on one side, the shipper requests
        # from the other: one shared in-process transport, or two TCP
        # transports over real sockets in this process.
        if spec.transport == "tcp":
            from repro.net.tcp import PortMap, TcpTransport

            portmap = PortMap.reserve([STANDBY_ID])
            transports.append(TcpTransport(portmap, default_timeout_s=5.0))
            transports.append(
                TcpTransport(
                    portmap, default_timeout_s=5.0, injector=injector,
                    metrics=registry,
                )
            )
            standby_transport, ship_transport = transports
        else:
            ship_transport = standby_transport = InProcessTransport(
                default_timeout_s=5.0, injector=injector, metrics=registry
            )
        paths = [f"/repl/d{i % spec.dirs}/f{i}" for i in range(spec.files)]
        primary = build_fleet(
            spec.servers, spec.files, spec.seed, paths, group_size=4
        )
        capture = ChangeCapture(metrics=registry, keep_history=True)
        capture.attach(primary)
        standby = StandbyNode(STANDBY_ID, standby_transport, metrics=standby_registry)
        standby.start()

        shipper = ReplicationShipper(
            capture,
            ship_transport,
            STANDBY_ID,
            epoch=1,
            batch_max=BATCH_MAX,
            metrics=registry,
        )
        controller = ReplicationController(capture, shipper, metrics=registry)
        auditor = DivergenceAuditor(metrics=registry)

        # Bootstrap: full checkpoint to the standby; the auditor snapshots
        # the same instant as its replay base.
        sync_reply = shipper.sync(now=0.0)
        if not sync_reply.get("ok"):
            failures.append(f"standby bootstrap rejected: {sync_reply}")
            return ScenarioResult({}, "", failures)
        auditor.note_base(
            primary, {h: capture.last_seq(h) for h in capture.homes()}
        )
        oracle: State = snapshot_state(primary)

        # Seeded workload until the kill.
        dirs = [f"/repl/d{k}" for k in range(spec.dirs)]
        dir_gen = [0] * spec.dirs
        now = 0.0
        dt = 1.0 / RATE_PER_S
        kill_index = max(1, int(spec.ops * spec.kill_at))
        renames = 0
        for index in range(kill_index):
            now += dt
            capture.advance(now)
            if injector is not None:
                injector.advance(now)
            draw = rng.random()
            if draw < 0.60:
                k = rng.randrange(spec.dirs)
                path = f"{dirs[k]}/n{index}"
                inode = 1_000_000 + index
                home = primary.insert_file(FileMetadata(path=path, inode=inode))
                _apply_to_oracle(oracle, "create", path, "", home, inode)
            elif draw < 0.90:
                live = sorted(oracle)
                if live:
                    path = live[rng.randrange(len(live))]
                    primary.delete_file(path)
                    _apply_to_oracle(oracle, "delete", path, "", 0, 0)
            else:
                k = rng.randrange(spec.dirs)
                old = dirs[k]
                dir_gen[k] += 1
                new = f"/repl/d{k}-g{dir_gen[k]}"
                if primary.rename_subtree(old, new):
                    renames += 1
                    _apply_to_oracle(oracle, "rename", old, new, 0, 0)
                    dirs[k] = new
            if (index + 1) % spec.ship_every == 0:
                controller.tick(now)

        # Primary dies here: no final flush, the unacked tail is the RPO.
        kill_vtime = now
        capture.detach()
        shipper_floors = dict(shipper.floors)
        captured_total = sum(capture.last_seq(h) for h in capture.homes())
        acked_total = sum(shipper_floors.values())
        pending_total = capture.pending_total(shipper_floors)

        promote_reply = promote_standby(
            ship_transport, STANDBY_ID, sender=PROMOTER_SENDER, now=kill_vtime
        )
        standby_floors = {
            int(h): int(s) for h, s in promote_reply.get("floors", {}).items()
        }

        # A straggler ship from the dead primary's epoch must bounce.
        probe = fence_probe(
            ship_transport, STANDBY_ID, epoch=shipper.epoch, now=kill_vtime
        )
        fence_ok = bool(probe.get("fenced"))
        late = shipper.ship(kill_vtime)  # a real late batch, if one is pending
        fence_ok = fence_ok and (late.ships == 0 or late.fenced > 0)

        report = auditor.audit_switchover(
            standby.endpoint.cluster,
            capture.history,
            shipper_floors,
            standby_floors,
            kill_vtime,
        )

        # Redirect: the promoted standby takes the workload, fronted by a
        # fresh gateway; lookups are re-verified against the oracle.
        promoted = standby.endpoint.cluster
        expected = dict(
            snapshot_state(promoted)
        )  # == base + acked stream (audit just proved it)
        client = MetadataClient(promoted)
        served = 0
        redirect_mismatches: List[str] = []
        for index in range(spec.redirect_ops):
            now += dt
            if index % 2 == 0:
                live = sorted(expected)
                if not live:
                    continue
                path = live[rng.randrange(len(live))]
                response = client.lookup(path, now=now)
                if response.outcome in (Outcome.QUEUED, Outcome.REJECTED):
                    continue
                served += 1
                want_home = expected[path][0]
                if response.home_id != want_home:
                    redirect_mismatches.append(
                        f"{path}: gateway said {response.home_id}, "
                        f"oracle says {want_home}"
                    )
            else:
                path = f"/dr/f{index}"
                inode = 2_000_000 + index
                home = promoted.insert_file(
                    FileMetadata(path=path, inode=inode)
                )
                expected[path] = (home, inode)
        redirect_divergences = diff_states(expected, snapshot_state(promoted))

        # SLO, gates, and the deterministic report.
        engine = SLOEngine(registry, objectives=replication_objectives())
        slo_results = engine.evaluate()

        rpo_ok = spec.rpo_bound < 0 or report.rpo_mutations <= spec.rpo_bound
        if report.divergences:
            failures.append(f"{len(report.divergences)} divergences")
        if report.lost_acked:
            failures.append(f"{report.lost_acked} acked-but-lost mutations")
        if not fence_ok:
            failures.append("late ship was NOT fenced")
        if redirect_mismatches:
            failures.append(f"{len(redirect_mismatches)} redirect mismatches")
        if redirect_divergences:
            failures.append(
                f"{len(redirect_divergences)} post-redirect divergences"
            )
        if not rpo_ok:
            failures.append(
                f"RPO {report.rpo_mutations} mutations > bound {spec.rpo_bound}"
            )

        lag = controller.summary()["acked_lag_ms"]
        lines = [
            f"replication drill: transport={spec.transport} "
            f"servers={spec.servers} files={spec.files} ops={spec.ops} "
            f"seed={spec.seed} chaos={'on' if spec.chaos else 'off'}",
            f"killed primary at op {kill_index} (vtime {kill_vtime:.3f}s): "
            f"captured={captured_total} acked={acked_total} "
            f"pending={pending_total} renames={renames}",
            f"promotion: epoch {shipper.epoch} -> {promote_reply['epoch']}, "
            f"standby applied={promote_reply.get('applied_total', 0)}",
            f"fencing: late ship from epoch {shipper.epoch} -> "
            f"fenced={fence_ok}",
            f"audit: divergences={len(report.divergences)} "
            f"lost_acked={report.lost_acked} "
            f"rpo_mutations={report.rpo_mutations} "
            f"rpo_virtual_ms={report.rpo_virtual_ms:.3f}",
            f"lag (acked, virtual ms): p50={lag['p50']} p95={lag['p95']} "
            f"p99={lag['p99']} max={lag['max']}",
            f"redirect: ops={spec.redirect_ops} served={served} "
            f"mismatches={len(redirect_mismatches)} "
            f"divergences={len(redirect_divergences)}",
        ]
        for result in slo_results:
            lines.append(
                f"slo: {result.objective.name} "
                f"compliance={result.compliance:.4%} ok={result.ok}"
            )
        for title, reg in (("primary", registry), ("standby", standby_registry)):
            section = replication_report(reg)
            if section:
                lines += ["", f"[{title}]", section]
        lines += [f"  divergence: {d}" for d in report.divergences[:10]]
        lines += [f"  redirect mismatch: {m}" for m in redirect_mismatches[:10]]

        stats = {
            "transport": spec.transport,
            "servers": spec.servers,
            "files": spec.files,
            "ops": spec.ops,
            "seed": spec.seed,
            "chaos": spec.chaos,
            "kill_at_op": kill_index,
            "kill_vtime_s": round(kill_vtime, 6),
            "captured": captured_total,
            "acked": acked_total,
            "pending_at_kill": pending_total,
            "rpo_mutations": report.rpo_mutations,
            "rpo_virtual_ms": round(report.rpo_virtual_ms, 3),
            "divergences": len(report.divergences),
            "lost_acked": report.lost_acked,
            "fenced_ok": fence_ok,
            "lag_ms": lag,
            "ship_throughput_ops_per_s": (
                round(acked_total / kill_vtime, 2) if kill_vtime else 0.0
            ),
            "apply_throughput_ops_per_s": (
                round(standby.endpoint.applied_total / kill_vtime, 2)
                if kill_vtime
                else 0.0
            ),
            "redirect": {
                "ops": spec.redirect_ops,
                "served": served,
                "mismatches": len(redirect_mismatches),
                "divergences": len(redirect_divergences),
            },
            "slo": [r.as_dict() for r in slo_results],
        }
    finally:
        if standby is not None:
            try:
                standby.stop()
            except Exception as exc:
                failures.append(f"standby did not stop: {exc!r}")
        for transport in transports:
            transport.close()
    if not failures:
        lines.append("PASS")
    return ScenarioResult(stats, "\n".join(lines), failures)
