"""Gateway under fault injection: degraded answers never poison the cache.

The fault-gateway contract (ISSUE 3, satellite 3):

- while a :class:`FaultPlan` partitions a group mid-run, lookups may come
  back ``degraded=True`` — the gateway must return them but **never**
  install them as leases;
- ``gateway_shed_total`` reconciles exactly with the admission
  controller's shed counts, split by cause;
- once the partition heals, the gateway converges back to correct,
  cacheable answers with zero stale reads throughout.
"""

import pytest

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.faults import FaultPlan, Partition, PlanFaultInjector
from repro.gateway import GatewayConfig, MetadataClient, Outcome
from repro.gateway import client as gateway_client


def _config(seed=33):
    return GHBAConfig(
        max_group_size=4,
        expected_files_per_mds=200,
        lru_capacity=128,
        lru_filter_bits=1 << 10,
        seed=seed,
    )


def _partitioned_stack(start_s=1.0, end_s=3.0, **gateway_overrides):
    """8 servers; one whole group islanded during [start_s, end_s)."""
    plan = FaultPlan(
        seed=33,
        partitions=(
            Partition(start_s=start_s, end_s=end_s, island=frozenset({0, 1, 2, 3})),
        ),
    )
    faults = PlanFaultInjector(plan)
    cluster = GHBACluster(8, _config(), seed=33, faults=faults)
    paths = [f"/ft/d{i % 4}/f{i}" for i in range(240)]
    cluster.populate(paths)
    cluster.synchronize_replicas(force=True)
    defaults = dict(rate_per_s=1e6, burst=1e4, lease_ttl_s=10.0)
    defaults.update(gateway_overrides)
    gateway = MetadataClient(cluster, GatewayConfig(**defaults))
    return cluster, gateway, paths, faults


class TestDegradedNeverCached:
    def test_partition_window_answers_are_not_installed(self):
        cluster, gateway, paths, faults = _partitioned_stack()
        # Tick 0 (healthy): warm a few leases.
        warm = paths[:8]
        faults.advance(0.0)
        gateway.lookup_many(warm, now=0.0)

        # Mid-partition: query *fresh* paths so every answer needs the
        # fleet.  Cross-island multicast legs are lost => degraded.
        faults.advance(2.0)
        fresh = paths[100:180]
        degraded_paths = []
        for response in gateway.lookup_many(fresh, now=2.0):
            assert response.outcome.is_answer
            if response.degraded:
                degraded_paths.append(response.path)
                # The contract: a degraded answer is served, never cached.
                assert response.path not in gateway.cache
        assert degraded_paths, "partition produced no degraded answers"
        uncached = cluster.metrics.get("gateway_degraded_uncached_total")
        assert uncached.value == len(degraded_paths)

        # Healthy leases installed before the partition are untouched.
        for path in warm:
            assert path in gateway.cache

    def test_degraded_negatives_never_become_negative_leases(self):
        cluster, gateway, paths, faults = _partitioned_stack()
        faults.advance(2.0)
        for response in gateway.lookup_many(paths[100:180], now=2.0):
            if response.degraded and response.home_id is None:
                # A lost multicast looks like "not found" — caching that
                # as a negative lease would be a stale-read factory.
                assert response.path not in gateway.cache

    def test_convergence_after_heal(self):
        cluster, gateway, paths, faults = _partitioned_stack(end_s=3.0)
        faults.advance(2.0)
        gateway.lookup_many(paths[100:180], now=2.0)
        # Partition heals; the same paths re-resolve, cache, and agree
        # with cluster ground truth.
        faults.advance(5.0)
        responses = gateway.lookup_many(paths[100:180], now=5.0)
        for response in responses:
            assert not response.degraded
            assert response.home_id == cluster.home_of(response.path)
            if response.outcome in (Outcome.SERVED, Outcome.BATCHED):
                assert response.path in gateway.cache
        # And now they hit.
        again = gateway.lookup_many(paths[100:110], now=5.5)
        assert all(r.from_cache for r in again)

    def test_batch_to_silenced_server_degrades_and_falls_through(self):
        cluster, gateway, paths, faults = _partitioned_stack()
        target = paths[0]
        faults.advance(0.0)
        first = gateway.lookup(target, now=0.0)
        home = first.home_id
        assert home is not None
        faults.silence(home)
        outcome = cluster.verify_batch(home, [target])
        assert outcome.degraded and outcome.found == 0
        # Through the client: the expired lease predicts the silenced
        # home; the batch degrades and the path falls through to a full
        # walk rather than being dropped.
        response = gateway.lookup(target, now=20.0)  # lease expired
        assert response.outcome is Outcome.SERVED
        faults.restore(home)


class TestShedReconciliation:
    def test_gateway_shed_total_matches_admission_stats(self, monkeypatch):
        monkeypatch.setattr(gateway_client, "QUEUE_CAPACITY", 6)
        monkeypatch.setattr(gateway_client, "QUEUE_DEADLINE_S", 0.05)
        cluster, gateway, paths, faults = _partitioned_stack(
            rate_per_s=100.0, burst=4.0
        )
        rejected = 0
        answered = 0
        faults.advance(0.0)
        for tick in range(12):
            now = tick * 0.01  # offered load far above 100/s
            for response in gateway.lookup_many(paths[:10], now=now):
                if response.outcome is Outcome.REJECTED:
                    rejected += 1
                else:
                    answered += 1
        # Drain: everything still queued either admits or sheds.
        for response in gateway.pump(10.0):
            if response.outcome is Outcome.REJECTED:
                rejected += 1
            else:
                answered += 1
        stats = gateway.admission.stats
        assert gateway.admission.queue_depth == 0
        assert rejected == stats.shed > 0
        assert answered == stats.admitted
        assert stats.admitted + stats.shed == stats.submitted
        shed_family = cluster.metrics.get("gateway_shed_total")
        assert shed_family.total() == stats.shed
        assert shed_family.get("-", "queue_full") == stats.shed_full
        assert shed_family.get("-", "deadline") == stats.shed_deadline
        assert gateway.shed_total() == stats.shed


class TestDeterminismUnderFaults:
    def test_partitioned_replay_is_reproducible(self):
        def run():
            cluster, gateway, paths, faults = _partitioned_stack()
            trace = []
            for tick in range(8):
                now = tick * 0.5
                faults.advance(now)
                responses = gateway.lookup_many(
                    paths[tick * 20 : tick * 20 + 20], now=now
                )
                trace.extend(
                    (r.path, r.outcome.value, r.home_id, r.degraded)
                    for r in responses
                )
            return trace, gateway.backend_queries, gateway.hit_rate()

        assert run() == run()
