"""Determinism: identical seeds must reproduce identical runs bit-for-bit.

Every experiment in EXPERIMENTS.md claims reproducibility from its seed;
these tests pin that property for the main moving parts.
"""

import pytest

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.experiments import fig11, fig12, table05
from repro.traces.profiles import HP_PROFILE
from repro.traces.synthetic import generate_trace


def _replay_run(seed):
    config = GHBAConfig(
        max_group_size=4,
        expected_files_per_mds=256,
        lru_capacity=64,
        lru_filter_bits=512,
        seed=seed,
    )
    cluster = GHBACluster(8, config, seed=seed)
    records = generate_trace(HP_PROFILE, 300, 1_500, seed=seed)
    placement = cluster.populate(sorted({r.path for r in records}))
    cluster.synchronize_replicas(force=True)
    outcomes = []
    for record in records:
        if record.path in placement:
            result = cluster.query(record.path)
            outcomes.append(
                (record.path, result.home_id, result.level.name,
                 round(result.latency_ms, 9), result.messages)
            )
    return outcomes, cluster.level_counter.as_dict()


class TestDeterminism:
    def test_trace_replay_identical_across_runs(self):
        first = _replay_run(seed=11)
        second = _replay_run(seed=11)
        assert first == second

    def test_different_seeds_differ(self):
        first, _ = _replay_run(seed=11)
        second, _ = _replay_run(seed=12)
        assert first != second

    def test_fig11_experiment_deterministic(self):
        a = fig11.run(server_counts=(20, 40)).rows
        b = fig11.run(server_counts=(20, 40)).rows
        assert a == b

    def test_fig12_experiment_deterministic(self, monkeypatch):
        monkeypatch.setattr(fig12, "PAPER_CONFIGS", (("HP", 20, 5),))
        a = fig12.run(num_updates=10).rows
        b = fig12.run(num_updates=10).rows
        assert a == b

    def test_table05_experiment_deterministic(self):
        a = table05.run(server_counts=(20,), files_per_server=500).rows
        b = table05.run(server_counts=(20,), files_per_server=500).rows
        assert a == b

    def test_reconfiguration_deterministic(self):
        def churn(seed):
            config = GHBAConfig(
                max_group_size=3,
                expected_files_per_mds=64,
                lru_capacity=8,
                lru_filter_bits=64,
                seed=seed,
            )
            cluster = GHBACluster(6, config, seed=seed)
            log = []
            for _ in range(4):
                report = cluster.add_server()
                log.append(
                    (report.server_id, report.migrated_replicas,
                     report.messages, report.split)
                )
            for _ in range(3):
                victim = cluster.server_ids()[0]
                report = cluster.remove_server(victim)
                log.append(
                    (victim, report.migrated_replicas, report.messages,
                     report.merged)
                )
            return log

        assert churn(5) == churn(5)
