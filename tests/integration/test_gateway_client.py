"""Integration tests for the gateway facade (repro.gateway.client).

End-to-end over a real :class:`GHBACluster`: the serving pipeline
(cache → coalesce → batch → backend), cache coherence through cluster
mutation hooks, the multi-key VERIFY_BATCH path, metrics accounting, the
zero-overhead-when-disabled discipline, and determinism of the bench CLI.
"""

import dataclasses

import pytest

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.gateway import GatewayConfig, MetadataClient, Outcome
from repro.gateway.__main__ import main as gateway_main
from repro.gateway.scenario import ScenarioSpec
from repro.gateway.scenarios import run_shield
from repro.obs.report import gateway_hotspot_report


def _config(seed=11):
    return GHBAConfig(
        max_group_size=4,
        expected_files_per_mds=200,
        lru_capacity=256,
        lru_filter_bits=1 << 10,
        seed=seed,
    )


def _cluster(num=8, seed=11):
    cluster = GHBACluster(num, _config(seed), seed=seed)
    paths = [f"/it/d{i % 5}/f{i}" for i in range(400)]
    cluster.populate(paths)
    cluster.synchronize_replicas(force=True)
    return cluster, paths


@pytest.fixture
def stack():
    cluster, paths = _cluster()
    gateway = MetadataClient(
        cluster,
        GatewayConfig(rate_per_s=1e6, burst=1e4, lease_ttl_s=5.0),
    )
    return cluster, gateway, paths


class TestServingPipeline:
    def test_first_lookup_walks_then_lease_hits(self, stack):
        cluster, gateway, paths = stack
        first = gateway.lookup(paths[0], now=0.0)
        assert first.outcome is Outcome.SERVED
        assert first.home_id == cluster.home_of(paths[0])
        again = gateway.lookup(paths[0], now=1.0)
        assert again.outcome is Outcome.HIT
        assert again.from_cache and again.home_id == first.home_id
        assert gateway.backend_queries == 1

    def test_negative_lookup_gets_negative_lease(self, stack):
        _, gateway, _ = stack
        miss = gateway.lookup("/it/absent", now=0.0)
        assert miss.outcome is Outcome.SERVED and miss.home_id is None
        again = gateway.lookup("/it/absent", now=0.1)
        assert again.outcome is Outcome.NEGATIVE_HIT
        assert gateway.backend_queries == 1

    def test_same_tick_duplicates_coalesce(self, stack):
        _, gateway, paths = stack
        hot = paths[3]
        responses = gateway.lookup_many([hot, hot, hot], now=0.0)
        outcomes = sorted(r.outcome.value for r in responses)
        assert outcomes == ["coalesced", "coalesced", "served"]
        assert gateway.backend_queries == 1  # one flight for three callers
        assert {r.home_id for r in responses} == {responses[0].home_id}

    def test_expired_leases_revalidate_in_batches(self, stack):
        cluster, gateway, paths = stack
        subset = paths[:6]
        gateway.lookup_many(subset, now=0.0)  # populate leases
        walks = gateway.backend_queries
        # Past the TTL every lease is expired but still predicts its home:
        # re-validation goes through verify_batch, not full walks.
        responses = gateway.lookup_many(subset, now=10.0)
        assert {r.outcome for r in responses} == {Outcome.BATCHED}
        homes = {cluster.home_of(p) for p in subset}
        assert gateway.backend_queries == walks + len(homes)
        for response in responses:
            assert response.home_id == cluster.home_of(response.path)

    def test_stale_prediction_falls_through_to_full_walk(self, stack):
        cluster, gateway, paths = stack
        victim = paths[7]
        gateway.lookup(victim, now=0.0)
        cluster.delete_file(victim)  # also invalidates the lease
        # Reinstall an (expired) wrong prediction by hand to force the
        # batch path to miss.
        gateway.cache.put(victim, cluster.home_of(paths[8]), None, -10.0)
        response = gateway.lookup(victim, now=0.0)
        assert response.outcome is Outcome.SERVED
        assert response.home_id is None


class TestCoherence:
    def test_create_through_facade_is_cached_and_correct(self, stack):
        cluster, gateway, _ = stack
        created = gateway.create("/it/d0/new", now=0.0)
        assert created.home_id == cluster.home_of("/it/d0/new")
        hit = gateway.lookup("/it/d0/new", now=0.1)
        assert hit.outcome is Outcome.HIT

    def test_delete_through_facade_yields_negative(self, stack):
        cluster, gateway, paths = stack
        gateway.lookup(paths[0], now=0.0)
        gateway.delete(paths[0], now=0.1)
        after = gateway.lookup(paths[0], now=0.2)
        assert after.outcome is Outcome.NEGATIVE_HIT
        assert cluster.home_of(paths[0]) is None

    def test_direct_cluster_mutations_invalidate_leases(self, stack):
        cluster, gateway, paths = stack
        gateway.lookup(paths[1], now=0.0)
        assert paths[1] in gateway.cache
        cluster.delete_file(paths[1])  # NOT through the facade
        assert paths[1] not in gateway.cache
        after = gateway.lookup(paths[1], now=0.1)
        assert after.home_id is None

    def test_rename_invalidates_cached_subtree(self, stack):
        cluster, gateway, paths = stack
        under = [p for p in paths if p.startswith("/it/d1/")][:5]
        gateway.lookup_many(under, now=0.0)
        assert all(p in gateway.cache for p in under)
        gateway.rename("/it/d1", "/it/renamed", now=0.1)
        assert all(p not in gateway.cache for p in under)
        # Old names resolve negative, new names resolve positive, and the
        # gateway agrees with the cluster on both.
        old = gateway.lookup(under[0], now=0.2)
        assert old.home_id is None
        moved = "/it/renamed/" + under[0].rsplit("/", 1)[1]
        new = gateway.lookup(moved, now=0.2)
        assert new.home_id == cluster.home_of(moved)

    def test_server_removal_drops_its_leases(self, stack):
        cluster, gateway, paths = stack
        gateway.lookup_many(paths[:40], now=0.0)
        victim = next(
            gateway.cache.peek(p).home_id
            for p in paths[:40]
            if p in gateway.cache
        )
        held = [
            p
            for p in paths[:40]
            if p in gateway.cache
            and gateway.cache.peek(p).home_id == victim
        ]
        cluster.remove_server(victim)
        assert all(p not in gateway.cache for p in held)


class TestBatchVerify:
    def test_verify_batch_finds_local_records(self, stack):
        cluster, gateway, paths = stack
        home = cluster.home_of(paths[0])
        mine = [p for p in paths if cluster.home_of(p) == home][:4]
        outcome = cluster.verify_batch(home, mine + ["/it/absent"])
        assert not outcome.degraded
        assert outcome.found == len(mine)
        for path in mine:
            assert outcome.results[path].path == path
        assert outcome.results["/it/absent"] is None
        assert outcome.messages == 2

    def test_verify_batch_rejects_empty_and_unknown(self, stack):
        cluster, _, paths = stack
        with pytest.raises(ValueError):
            cluster.verify_batch(0, [])
        missing = cluster.verify_batch(999, [paths[0]])
        assert missing.degraded


class TestMetricsAndReport:
    def test_gateway_metrics_accumulate(self, stack):
        cluster, gateway, paths = stack
        gateway.lookup_many([paths[0], paths[0], paths[1]], now=0.0)
        gateway.lookup(paths[0], now=0.1)
        m = cluster.metrics
        assert m.get("gateway_requests_total").get("lookup", "-") == 4
        assert m.get("gateway_cache_hits_total").get("positive") == 1
        assert m.get("gateway_coalesced_total").value == 1
        assert m.get("gateway_backend_queries_total").total() == 2
        gateway.refresh_gauges()
        assert m.get("gateway_cache_entries").value == 2

    def test_report_includes_gateway_section(self, stack):
        cluster, gateway, paths = stack
        for _ in range(40):
            gateway.lookup(paths[0], now=0.0)
        report = gateway_hotspot_report(gateway)
        assert "hotspots: gateway paths" in report
        assert paths[0] in report

    def test_empty_gateway_report_renders(self, stack):
        _, gateway, _ = stack
        assert "no gateway traffic" in gateway_hotspot_report(gateway)


class TestZeroOverheadWhenDisabled:
    def test_plain_cluster_has_no_gateway_series(self):
        cluster, paths = _cluster()
        for path in paths[:50]:
            cluster.query(path)
        cluster.delete_file(paths[0])
        cluster.rename_subtree("/it/d2", "/it/moved")
        snapshot = cluster.metrics.snapshot()
        assert not any(name.startswith("gateway_") for name in snapshot)
        assert "ghba_batch_verifies_total" not in snapshot
        assert cluster._mutation_listeners == []

    def test_direct_runs_identical_with_and_without_gateway_elsewhere(self):
        # A gateway fronting cluster A must not perturb a direct-driven
        # cluster B sharing nothing but the code path.
        cluster_a, paths = _cluster()
        cluster_b, _ = _cluster()
        MetadataClient(cluster_a)  # attached, never used
        results_b = [
            (r.home_id, r.level.name, round(r.latency_ms, 9), r.messages)
            for r in (cluster_b.query(p) for p in paths[:80])
        ]
        cluster_c, _ = _cluster()
        results_c = [
            (r.home_id, r.level.name, round(r.latency_ms, 9), r.messages)
            for r in (cluster_c.query(p) for p in paths[:80])
        ]
        assert results_b == results_c
        assert cluster_b.metrics.snapshot() == cluster_c.metrics.snapshot()


class TestHotspotShielding:
    def test_hot_path_gets_pinned_and_extended_lease(self, stack):
        _, gateway, paths = stack
        hot = paths[5]
        for i in range(gateway.config.hot_threshold + 1):
            gateway.lookup(hot, now=0.01 * i)
        assert gateway.hotspots.is_hot(hot)
        assert hot in gateway.cache.pinned_paths()
        # The pinned lease lasts hot_lease_ttl_s, not lease_ttl_s.
        late = gateway.lookup(hot, now=gateway.config.lease_ttl_s + 1.0)
        assert late.outcome is Outcome.HIT


class TestBenchDeterminism:
    SPEC = ScenarioSpec(
        servers=8, group_size=4, files=500, ops=800, clients=6,
        profile="HP", seed=7, cache_capacity=2048, lease_ttl_s=5.0,
        rate_per_s=2000.0, hot_threshold=16, top=5, chaos=False,
        chaos_start_s=0.2, chaos_window_s=0.5,
    )

    def test_same_seed_same_stats(self):
        a = run_shield(self.SPEC).stats
        b = run_shield(self.SPEC).stats
        assert a == b
        assert a["stale_reads"] == 0 and a["home_mismatches"] == 0

    def test_same_seed_same_stats_under_faults(self):
        a = run_shield(dataclasses.replace(self.SPEC, chaos=True)).stats
        b = run_shield(dataclasses.replace(self.SPEC, chaos=True)).stats
        assert a == b
        assert a["stale_reads"] == 0

    def test_cli_exit_code_and_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = gateway_main(
            [
                "bench", "--servers", "8", "--files", "400", "--ops", "600",
                "--seed", "7", "--json", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "backend reduction" in captured
