"""Smoke tests: every experiment runs at miniature scale and produces the
paper's qualitative shape.  Full-scale assertions live in benchmarks/."""

import pytest

from repro.experiments import ablation_lru, ablation_updates
from repro.experiments import fig06, fig07, fig08_10, fig11, fig12, fig13
from repro.experiments import fig14, fig15, table01, table05, tables_traces


class TestTableExperiments:
    def test_table01_rows(self):
        result = table01.run()
        assert len(result.rows) == 6
        assert any(row["scheme"] == "g_hba" for row in result.rows)

    def test_tables_traces_histogram_preserved(self):
        result = tables_traces.run(base_files=300, base_ops=600, tif_scale=0.05)
        for row in result.rows:
            assert row["total_ops"] == row["tif"] * row["base_total_ops"]
            assert row["stat_fraction"] == pytest.approx(
                row["base_stat_fraction"], abs=1e-9
            )

    def test_table05_ordering(self):
        result = table05.run(server_counts=(20, 40), files_per_server=500)
        for row in result.rows:
            assert row["bfa16"] == pytest.approx(2.0, rel=0.01)
            assert row["hba"] > 1.0
            assert row["ghba"] < 0.5
        ghba = [row["ghba"] for row in result.rows]
        assert ghba[1] < ghba[0]  # overhead falls with N


class TestModelExperiments:
    def test_fig06_optima_within_band(self):
        result = fig06.run(server_counts=(30,), max_group_size=15)
        for row in result.rows:
            if row["paper_optimal_m"] is not None:
                assert abs(row["optimal_m"] - row["paper_optimal_m"]) <= 1

    def test_fig07_growth(self):
        result = fig07.run()
        first, last = result.rows[0], result.rows[-1]
        assert last["optimal_m_hp"] > first["optimal_m_hp"]


class TestSimulationExperiments:
    def test_fig08_memory_effect(self):
        result = fig08_10.run(
            "HP",
            memory_fractions=(1.25, 0.45),
            num_servers=12,
            group_size=4,
            num_files=2_000,
            num_ops=6_000,
        )
        tight_hba = fig08_10.final_latency(result, "hba", 0.45)
        tight_ghba = fig08_10.final_latency(result, "ghba", 0.45)
        ample_hba = fig08_10.final_latency(result, "hba", 1.25)
        assert tight_hba > 2 * tight_ghba  # HBA collapses under pressure
        assert tight_hba > 3 * ample_hba   # and relative to ample memory

    def test_fig11_ordering(self):
        result = fig11.run(server_counts=(30, 60))
        for row in result.rows:
            assert row["ghba_hp"] < row["hash_hp"] < row["hba"]

    def test_fig12_ghba_cheaper(self, monkeypatch):
        monkeypatch.setattr(fig12, "PAPER_CONFIGS", (("HP", 20, 5),))
        result = fig12.run(num_updates=10, files_per_update=3)
        row = result.rows[0]
        assert row["ghba_avg_messages"] < row["hba_avg_messages"] / 2
        assert row["ghba_avg_latency_ms"] < row["hba_avg_latency_ms"]

    def test_fig13_levels(self):
        result = fig13.run(
            server_counts=(10, 30), num_files=600, num_ops=6_000
        )
        for row in result.rows:
            assert row["within_group"] > 0.9
            assert row["l1"] > row["l4"]
        assert result.rows[-1]["l4"] >= result.rows[0]["l4"]


class TestPrototypeExperiments:
    def test_fig14_ghba_wins_at_heavy_load(self):
        result = fig14.run(
            num_nodes=10, group_size=4, num_files=800, num_ops=1_200
        )
        improvement = fig14.improvement_at_heaviest_load(result)
        assert improvement > 0.1  # paper: up to 31.2%

    def test_fig15_message_savings(self):
        # Mirrors the paper's setup shape: M=7 with slack in one group, so
        # most joins are cheap; occasional splits are amortized.
        result = fig15.run(initial_nodes=16, group_size=7, additions=4)
        last = result.rows[-1]
        assert last["ghba_cumulative"] < last["hba_cumulative"]
        assert last["hba_messages"] == 2 * (16 + 3)  # the 2N exchange


class TestAblations:
    def test_lru_ablation_direction(self):
        result = ablation_lru.run(
            lru_capacities=(1, 1024),
            num_servers=10,
            group_size=4,
            num_files=500,
            num_ops=3_000,
        )
        disabled, enabled = result.rows[0], result.rows[-1]
        assert enabled["l1"] > disabled["l1"] + 0.2
        assert enabled["mean_latency_ms"] < disabled["mean_latency_ms"]

    def test_update_threshold_tradeoff(self):
        result = ablation_updates.run(
            thresholds=(0, 512), num_servers=10, group_size=4, churn_rounds=15
        )
        eager, lazy = result.rows[0], result.rows[-1]
        assert eager["update_messages"] > lazy["update_messages"]
        assert eager["stale_escape_rate"] < lazy["stale_escape_rate"]
