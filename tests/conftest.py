"""Shared fixtures: small, fast cluster configurations."""

from __future__ import annotations

import contextlib
import random
from unittest import mock

import pytest

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig


@pytest.fixture
def small_config() -> GHBAConfig:
    """A configuration sized for fast tests."""
    return GHBAConfig(
        max_group_size=4,
        bits_per_file=16.0,
        expected_files_per_mds=512,
        lru_capacity=128,
        lru_filter_bits=1 << 10,
        lru_num_hashes=4,
        update_threshold_bits=32,
        seed=7,
    )


@pytest.fixture
def small_cluster(small_config: GHBAConfig) -> GHBACluster:
    """A 10-server cluster in groups of <= 4, unpopulated."""
    return GHBACluster(10, small_config, seed=7)


@pytest.fixture
def populated_cluster(small_cluster: GHBACluster):
    """A populated, synchronized cluster plus its placement map."""
    paths = [f"/fs/dir{i % 6}/file{i}" for i in range(600)]
    placement = small_cluster.populate(paths)
    small_cluster.synchronize_replicas(force=True)
    return small_cluster, placement


def run_cohort_scenario(
    seed,
    size=3,
    plan=None,
    ops=800,
    rate_per_s=400.0,
    publish_invalidations=True,
    lookup_fraction=0.80,
):
    """Deterministic cohort simulator (ISSUE 4 test harness).

    Interleaves seeded random lookups and mutations across the members
    of a :class:`~repro.gateway.cohort.GatewayCohort` driven under
    ``plan``, auditing every answer with the same
    :class:`~repro.gateway.staleness.StalenessAuditor` the bench uses.
    Returns ``(cohort, auditor)`` after a quiescing settle.

    Everything — trace, fault draws, protocol schedule — derives from
    ``seed``, so two calls with equal arguments must produce
    bit-identical counters (the determinism test pins exactly that).

    ``publish_invalidations=False`` runs the broken deployment the
    staleness checker must catch: mutations happen but no member ever
    mints a record, while heartbeats keep advertising a healthy,
    unchanged log — suspicion never fires, so nothing bounds the stale
    leases.
    """
    from repro.faults import PlanFaultInjector
    from repro.gateway import CohortConfig, GatewayConfig, GatewayCohort
    from repro.gateway.cohort import CohortMember
    from repro.gateway.staleness import StalenessAuditor

    broken = mock.patch.object(CohortMember, "_publish", lambda *a, **k: None)
    with broken if not publish_invalidations else contextlib.nullcontext():
        config = GHBAConfig(
            max_group_size=4,
            expected_files_per_mds=200,
            lru_capacity=256,
            lru_filter_bits=1 << 11,
            seed=seed,
        )
        cluster = GHBACluster(8, config, seed=seed)
        live = [f"/fs/d{i % 8}/f{i}" for i in range(200)]
        hot = list(live[:40])
        cluster.populate(live)
        cluster.synchronize_replicas(force=True)

        cohort_config = CohortConfig(
            gateway=GatewayConfig(lease_ttl_s=60.0, cache_capacity=1024),
        )
        faults = (
            PlanFaultInjector(plan, metrics=cluster.metrics)
            if plan is not None
            else None
        )
        cohort = GatewayCohort(cluster, size, cohort_config, faults=faults)
        auditor = StalenessAuditor(cluster, cohort_config.staleness_bound_s)

        rng = random.Random(seed)
        step_s = cohort_config.heartbeat_interval_s / 2.0
        now = 0.0
        next_step = 0.0
        serial = 0
        # Old names of recently-mutated paths.  Reading these is what makes
        # staleness *observable*: a member still holding the old lease will
        # serve it until the invalidation (or the clamp) kills it.
        ghosts = []
        for _ in range(ops):
            now += rng.expovariate(rate_per_s)
            while next_step <= now:
                for member_id, responses in cohort.step(next_step).items():
                    for response in responses:
                        auditor.audit(response, next_step, member_id)
                next_step += step_s
            member = cohort.members[rng.randrange(size)]
            draw = rng.random()
            if draw < lookup_fraction or not live:
                probe = rng.random()
                if ghosts and probe < 0.25:
                    target = rng.choice(ghosts)
                elif hot and probe < 0.85:
                    target = rng.choice(hot)
                else:
                    target = rng.choice(live)
                auditor.audit(member.lookup(target, now), now, member.member_id)
            elif draw < lookup_fraction + 0.08:
                serial += 1
                path = f"/fs/d{serial % 8}/new{serial}"
                member.create(path, now)
                auditor.note_mutation("create", path, now)
                live.append(path)
            elif draw < lookup_fraction + 0.16 and live:
                # Prefer hot victims: they are cached at every member, so a
                # delete exercises remote invalidation where it matters.
                pool = hot if hot and rng.random() < 0.5 else live
                victim = pool[rng.randrange(len(pool))]
                live.remove(victim)
                if victim in hot:
                    hot.remove(victim)
                member.delete(victim, now)
                auditor.note_mutation("delete", victim, now)
                ghosts.append(victim)
            elif live:
                pool = hot if hot and rng.random() < 0.5 else live
                source = pool[rng.randrange(len(pool))]
                index = live.index(source)
                renamed = source + ".r"
                member.rename(source, renamed, now)
                auditor.note_mutation("rename", source, now, new_path=renamed)
                live[index] = renamed
                if source in hot:
                    hot[hot.index(source)] = renamed
                ghosts.append(source)
            del ghosts[:-32]  # only recent mutations are interesting probes
        end = cohort.settle(now)
        for member_id, responses in cohort.step(end).items():
            for response in responses:
                auditor.audit(response, end, member_id)
        return cohort, auditor


@pytest.fixture
def cohort_scenario():
    """The scenario driver as a fixture, shared across integration tests."""
    return run_cohort_scenario
