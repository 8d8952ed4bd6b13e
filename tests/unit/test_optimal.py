"""Unit tests for the normalized-throughput model (Section 3.3, Eqs. 2-4)."""

import math

import pytest

from repro.core.optimal import (
    STALE_MISS_CAP,
    TRACE_MODELS,
    HitRates,
    OptimalityModel,
    normalized_throughput,
    optimal_group_size,
    space_overhead,
    throughput_curve,
)


class TestSpaceOverhead:
    def test_equation3(self):
        assert space_overhead(30, 6) == pytest.approx(4.0)
        assert space_overhead(100, 9) == pytest.approx(91 / 9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            space_overhead(10, 0)
        with pytest.raises(ValueError):
            space_overhead(10, 10)


class TestHitRates:
    def test_escape_rate_grows_with_n(self):
        rates = HitRates()
        assert rates.l4_escape_rate(100) > rates.l4_escape_rate(10)

    def test_escape_rate_capped(self):
        rates = HitRates(stale_miss_rate_per_server=0.01)
        assert rates.l4_escape_rate(1_000) == STALE_MISS_CAP

    def test_validation(self):
        with pytest.raises(ValueError):
            HitRates(p_lru=1.0)


class TestModelStructure:
    def test_level_probabilities_sum_to_one(self):
        model = OptimalityModel()
        p1, p2, p3, p4 = model.level_probabilities(30, 6)
        assert p1 + p2 + p3 + p4 == pytest.approx(1.0)

    def test_theta_matches_paper(self):
        model = OptimalityModel()
        assert model.theta(30, 6) == pytest.approx(4.0)

    def test_coverage_decreases_with_m(self):
        model = OptimalityModel()
        assert model.local_coverage(30, 2) > model.local_coverage(30, 10)

    def test_delay_grows_with_group_size(self):
        model = OptimalityModel()
        assert model.group_multicast_delay_ms(10) > (
            model.group_multicast_delay_ms(2)
        )

    def test_utilization_grows_with_m_at_scale(self):
        model = OptimalityModel()
        assert model.utilization(100, 15) > model.utilization(100, 9)

    def test_saturated_latency_is_inf(self):
        model = OptimalityModel(arrivals_total_per_s=1e9)
        assert math.isinf(model.latency_ms(30, 6))

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimalityModel(arrivals_total_per_s=0)
        with pytest.raises(ValueError):
            OptimalityModel(work_l3_exponent=0.5)


class TestGammaShape:
    def test_gamma_zero_when_saturated(self):
        model = OptimalityModel(arrivals_total_per_s=1e9)
        assert normalized_throughput(30, 6, model) == 0.0

    def test_curve_is_unimodal_for_hp(self):
        """Figure 6's curves rise to one peak then fall."""
        curve = [g for _, g in throughput_curve(30, TRACE_MODELS["HP"], 15)]
        peak = curve.index(max(curve))
        assert all(curve[i] <= curve[i + 1] for i in range(peak))
        assert all(curve[i] >= curve[i + 1] for i in range(peak, len(curve) - 1))


class TestPaperOptima:
    """The calibrated model must land within ±1 of every Figure 6/7 value."""

    @pytest.mark.parametrize(
        "trace,num_servers,paper_m",
        [
            ("HP", 30, 6),
            ("INS", 30, 6),
            ("RES", 30, 5),
            ("HP", 100, 9),
            ("INS", 100, 9),
            ("RES", 100, 9),
        ],
    )
    def test_figure6_optima(self, trace, num_servers, paper_m):
        best = optimal_group_size(
            num_servers, TRACE_MODELS[trace], max_group_size=15
        )
        assert abs(best - paper_m) <= 1

    @pytest.mark.parametrize(
        "num_servers,paper_m",
        [(10, 3), (30, 6), (60, 7), (100, 9), (150, 11), (200, 14)],
    )
    def test_figure7_trend(self, num_servers, paper_m):
        best = optimal_group_size(
            num_servers, TRACE_MODELS["HP"], max_group_size=25
        )
        assert abs(best - paper_m) <= 1

    def test_optimal_m_grows_with_n(self):
        model = TRACE_MODELS["HP"]
        optima = [
            optimal_group_size(n, model, max_group_size=25)
            for n in (10, 30, 100, 200)
        ]
        assert optima == sorted(optima)
        assert optima[0] < optima[-1]

    def test_res_optimum_at_most_hp(self):
        """RES's heavier load pulls its optimum down (Figure 6)."""
        res = optimal_group_size(30, TRACE_MODELS["RES"], max_group_size=15)
        hp = optimal_group_size(30, TRACE_MODELS["HP"], max_group_size=15)
        assert res <= hp
