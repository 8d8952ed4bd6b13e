"""Integration tests for fault injection, degradation and recovery.

The acceptance contract of the fault layer:

- faults disabled (the NULL injector) is bit-identical to a build without
  the fault layer — same message counts, same latencies;
- the chaos soak is deterministic: one seed, one report;
- under 5% message loss plus one crash/restart, no query is lost and the
  retry/drop accounting reconciles exactly;
- a partitioned group multicast degrades to the L4 global broadcast
  instead of failing;
- a node restored from its crash checkpoint behaves identically to one
  that never crashed.
"""

import pytest

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.query import QueryLevel
from repro.faults import (
    NULL_INJECTOR,
    FaultPlan,
    Partition,
    PlanFaultInjector,
    SoakConfig,
    run_soak,
    soak,
)
from repro.prototype.cluster import PrototypeCluster


def _config(**overrides):
    defaults = dict(
        max_group_size=4,
        expected_files_per_mds=256,
        lru_capacity=64,
        lru_filter_bits=512,
        seed=21,
    )
    defaults.update(overrides)
    return GHBAConfig(**defaults)


def _paths(count, prefix="/data"):
    return [f"{prefix}/f{i:05d}" for i in range(count)]


# ----------------------------------------------------------------------
# Zero-overhead default: NULL injector is invisible
# ----------------------------------------------------------------------
class TestNullInjectorZeroOverhead:
    def test_sim_query_costs_identical_with_and_without_fault_layer(self):
        """An all-zero plan (enabled guards taken) must not shift a single
        message or millisecond versus the no-injector default."""
        results = []
        for faults in (None, PlanFaultInjector(FaultPlan(seed=21))):
            cluster = GHBACluster(9, _config(), seed=21, faults=faults)
            placement = cluster.populate(_paths(120), policy="round_robin")
            cluster.synchronize_replicas(force=True)
            run = []
            for index, (path, home) in enumerate(sorted(placement.items())):
                origin = cluster.server_ids()[index % cluster.num_servers]
                result = cluster.query(path, origin_id=origin)
                run.append(
                    (
                        result.home_id,
                        result.level,
                        result.messages,
                        result.latency_ms,
                        result.degraded,
                    )
                )
            results.append(run)
        assert results[0] == results[1]
        assert all(not degraded for _, _, _, _, degraded in results[0])

    def test_prototype_wire_counts_identical_under_null_injector(self):
        runs = []
        for injector in (None, PlanFaultInjector(FaultPlan(seed=21))):
            with PrototypeCluster(6, _config(), scheme="ghba", seed=21) as proto:
                if injector is not None:
                    proto.transport.injector = injector
                placement = proto.populate(_paths(60), policy="round_robin")
                outcomes = []
                for index, path in enumerate(sorted(placement)):
                    origin = proto.node_ids()[index % proto.num_nodes]
                    outcome = proto.lookup(path, origin_id=origin)
                    outcomes.append(
                        (outcome.home_id, outcome.level, outcome.degraded)
                    )
                proto.quiesce()
                runs.append((outcomes, proto.transport.messages_sent))
        outcomes_a, messages_a = runs[0]
        outcomes_b, messages_b = runs[1]
        assert outcomes_a == outcomes_b
        assert messages_a == messages_b
        assert all(not degraded for _, _, degraded in outcomes_a)


# ----------------------------------------------------------------------
# Degradation: partitioned group multicast falls back to L4
# ----------------------------------------------------------------------
class TestDegradedFallback:
    def test_sim_partitioned_peers_escalate_to_global_broadcast(self):
        """Sever the origin's whole group: the L3 multicast comes back
        empty-handed, and the query is answered — degraded — by the L4
        global broadcast."""
        cluster = GHBACluster(9, _config(), seed=21)
        placement = cluster.populate(_paths(120), policy="round_robin")
        cluster.synchronize_replicas(force=True)

        origin_id = cluster.server_ids()[0]
        peers = [
            member
            for member in cluster.group_of(origin_id).member_ids()
            if member != origin_id
        ]
        assert peers, "fixture needs a multi-member group"
        # A path homed outside the origin's group, whose replica the
        # origin does not host itself (so L2 cannot answer locally).
        hosted = set(cluster.servers[origin_id].hosted_replicas())
        group_ids = set(cluster.group_of(origin_id).member_ids())
        path, home = next(
            (path, home)
            for path, home in sorted(placement.items())
            if home not in group_ids and home not in hosted
        )

        plan = FaultPlan(
            seed=21,
            partitions=(
                Partition(start_s=0.0, end_s=1e9, island=frozenset(peers)),
            ),
        )
        cluster.faults = PlanFaultInjector(plan)
        result = cluster.query(path, origin_id=origin_id)
        assert result.degraded
        assert result.found
        assert result.home_id == home
        assert result.level is QueryLevel.L4

        # Fault-free control from the same state answers clean.
        cluster.faults = NULL_INJECTOR
        control = cluster.query(path, origin_id=origin_id)
        assert control.home_id == home
        assert not control.degraded

    def test_unique_hit_of_a_partial_multicast_is_forwarded_by_both_drivers(self):
        """Partition one peer of the origin's group that does *not* host
        the queried home's replica: the multicast loses a member, its
        unique hit is forwarded and verified all the same, and simulator
        and prototype both answer at L3 — degraded — instead of paying for
        the broadcast."""
        config, paths = _config(), _paths(120)
        sim = GHBACluster(9, config, seed=21)
        placement = sim.populate(paths, policy="round_robin")
        sim.synchronize_replicas(force=True)
        origin = sim.server_ids()[0]
        group = sim.group_of(origin)
        hosts = group.idbfa.placements()  # outside home -> hosting member
        path, home = next(
            (path, home)
            for path, home in sorted(placement.items())
            if home in hosts and hosts[home] != origin
        )
        bystander = next(
            member
            for member in group.member_ids()
            if member not in (origin, hosts[home])
        )
        plan = FaultPlan(
            seed=21,
            partitions=(
                Partition(start_s=0.0, end_s=1e9, island=frozenset({bystander})),
            ),
        )
        sim.faults = PlanFaultInjector(plan)
        answers = [sim.query(path, origin_id=origin)]
        with PrototypeCluster(9, config, scheme="ghba", seed=21) as proto:
            assert proto.populate(paths, policy="round_robin") == placement
            group_id = proto.directory.group_of(origin)
            assert proto.directory.placements[group_id] == hosts
            proto.transport.injector = PlanFaultInjector(plan)
            try:
                answers.append(proto.lookup(path, origin_id=origin))
            finally:
                proto.transport.injector = NULL_INJECTOR
                proto.quiesce()
        for answer in answers:
            assert answer.level is QueryLevel.L3
            assert answer.degraded
            assert answer.home_id == home
            assert answer.false_forwards == 0

    def test_prototype_unreachable_home_degrades_instead_of_raising(self):
        config = _config(max_group_size=3)
        with PrototypeCluster(6, config, scheme="ghba", seed=21) as proto:
            placement = proto.populate(_paths(60), policy="round_robin")
            island = frozenset(proto.groups[min(proto.groups)])
            plan = FaultPlan(
                seed=21,
                partitions=(
                    Partition(start_s=0.0, end_s=1e9, island=island),
                ),
            )
            proto.transport.injector = PlanFaultInjector(plan)
            try:
                origin = next(
                    nid for nid in proto.node_ids() if nid not in island
                )
                cut_path = next(
                    path
                    for path, home in sorted(placement.items())
                    if home in island
                )
                outcome = proto.lookup(cut_path, origin_id=origin)
                assert outcome.degraded
                assert not outcome.found  # home unreachable, not a crash

                near_path = next(
                    path
                    for path, home in sorted(placement.items())
                    if home == origin
                )
                near = proto.lookup(near_path, origin_id=origin)
                assert near.found and near.home_id == origin
            finally:
                proto.transport.injector = NULL_INJECTOR
                proto.quiesce()


# ----------------------------------------------------------------------
# Chaos soak: determinism + survival
# ----------------------------------------------------------------------
class TestSoak:
    SMALL = SoakConfig(seed=11, duration_s=2.0, num_files=120)

    def test_same_seed_same_report(self):
        first = run_soak(self.SMALL)
        second = run_soak(self.SMALL)
        assert first.to_dict() == second.to_dict()

    def test_different_seed_different_chaos(self):
        other = run_soak(SoakConfig(seed=12, duration_s=2.0, num_files=120))
        baseline = run_soak(self.SMALL)
        assert other.to_dict() != baseline.to_dict()

    def test_survives_drops_partition_and_crash(self):
        """The acceptance run: 5% drop, one group partition, one
        crash/restart — zero lost queries, zero false negatives, and the
        drop/retry ledger balances."""
        report = run_soak(SoakConfig(seed=7, duration_s=4.0))
        assert report.ops == 200
        assert report.lost == 0
        assert report.false_negatives == 0
        assert report.misrouted == 0
        assert report.reconciled
        assert report.passed
        assert report.availability == 1.0
        # The chaos actually happened.
        assert report.dropped_requests > 0
        assert report.retries > 0
        assert report.degraded_total > 0
        assert ("crash", "restore") == tuple(kind for _, kind, _ in report.events)
        # Reconciliation restated from the raw counters.
        assert report.dropped_requests == report.retries + report.exhausted

    def test_faultless_soak_is_clean(self, monkeypatch):
        """The control: the same soak under an empty plan degrades nothing."""
        monkeypatch.setattr(
            soak, "build_plan", lambda config, groups: FaultPlan(seed=config.seed)
        )
        report = run_soak(SoakConfig(seed=3, duration_s=2.0, num_files=80))
        assert report.passed
        assert report.degraded_total == 0
        assert report.unavailable == 0
        assert report.retries == 0 and report.exhausted == 0
        assert report.found_degraded == 0
        assert not any(report.injected.values())

    def test_report_render_and_dict_agree(self):
        report = run_soak(self.SMALL)
        text = report.render()
        assert "chaos soak survival report" in text
        assert ("PASS" in text) == report.passed
        data = report.to_dict()
        assert data["passed"] == report.passed
        assert data["ops"] == report.ops


# ----------------------------------------------------------------------
# Crash checkpoint: restore matches a never-crashed control
# ----------------------------------------------------------------------
class TestCrashRestore:
    def test_restored_node_indistinguishable_from_control(self):
        config = _config()
        paths = _paths(80, prefix="/ckpt")
        with PrototypeCluster(6, config, scheme="ghba", seed=21) as crashed, \
                PrototypeCluster(6, config, scheme="ghba", seed=21) as control:
            placement = crashed.populate(paths, policy="round_robin")
            control_placement = control.populate(paths, policy="round_robin")
            assert placement == control_placement

            victim = crashed.node_ids()[2]
            crashed.crash_node(victim)
            assert victim not in crashed.nodes
            assert crashed.crashed_node_ids() == [victim]
            restored = crashed.restore_node(victim)
            assert restored.node_id == victim
            assert crashed.crashed_node_ids() == []

            # Durable state survived the crash byte-for-byte.
            a = crashed.nodes[victim].server
            b = control.nodes[victim].server
            assert sorted(a.store.paths()) == sorted(b.store.paths())
            assert a.hosted_replicas() == b.hosted_replicas()
            crashed.check_directory()

            # Both clusters answer an identical workload identically.
            for index, path in enumerate(sorted(placement)):
                origin = crashed.node_ids()[index % crashed.num_nodes]
                ours = crashed.lookup(path, origin_id=origin)
                theirs = control.lookup(path, origin_id=origin)
                assert (ours.home_id, ours.level, ours.degraded) == (
                    theirs.home_id,
                    theirs.level,
                    theirs.degraded,
                )
                assert ours.home_id == placement[path]
            crashed.quiesce()
            control.quiesce()

    def test_lookup_during_crash_degrades_then_recovers(self):
        config = _config(max_group_size=3)
        with PrototypeCluster(6, config, scheme="ghba", seed=21) as proto:
            placement = proto.populate(_paths(60), policy="round_robin")
            victim = proto.node_ids()[0]
            victim_path = next(
                path for path, home in sorted(placement.items()) if home == victim
            )
            origin = next(nid for nid in proto.node_ids() if nid != victim)

            proto.crash_node(victim)
            down = proto.lookup(victim_path, origin_id=origin)
            assert not down.found
            assert down.degraded

            proto.restore_node(victim)
            proto.quiesce()
            back = proto.lookup(victim_path, origin_id=origin)
            assert back.found
            assert back.home_id == victim
            proto.quiesce()

    def test_restore_without_crash_is_rejected(self):
        with PrototypeCluster(4, _config(), scheme="ghba", seed=21) as proto:
            with pytest.raises(KeyError):
                proto.restore_node(proto.node_ids()[0])
