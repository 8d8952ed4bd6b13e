"""Unit tests for metric recorders and seeded samplers."""

import pytest

from repro.experiments.common import SeriesRecorder
from repro.obs.registry import RESERVOIR_SIZE, MetricsRegistry
from repro.sim.rng import ZipfSampler, make_rng, weighted_choice


def histogram_child(seed=0):
    """A fresh unlabeled histogram child: the repo's latency recorder."""
    return MetricsRegistry().histogram("t_ms", seed=seed).labels()


class TestLatencyRecorder:
    def test_exact_moments(self):
        recorder = histogram_child()
        for value in (1.0, 2.0, 3.0):
            recorder.observe(value)
        assert recorder.count == 3
        assert recorder.mean == pytest.approx(2.0)
        assert recorder.minimum == 1.0
        assert recorder.maximum == 3.0

    def test_percentiles_small_sample(self):
        recorder = histogram_child()
        for value in range(1, 101):
            recorder.observe(float(value))
        assert recorder.percentile(50) == pytest.approx(50.5, abs=1.0)
        assert recorder.percentile(0) == 1.0
        assert recorder.percentile(100) == 100.0

    def test_reservoir_bounded(self):
        recorder = histogram_child()
        for value in range(3 * RESERVOIR_SIZE):
            recorder.observe(float(value % 100))
        # percentile over reservoir stays in the data range
        assert 0 <= recorder.percentile(50) <= 99
        assert recorder.count == 3 * RESERVOIR_SIZE
        assert len(recorder._reservoir) == RESERVOIR_SIZE

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            histogram_child().observe(-1.0)

    def test_summary_keys(self):
        recorder = histogram_child()
        recorder.observe(1.0)
        summary = recorder.summary()
        assert set(summary) == {"count", "mean", "min", "max", "p50", "p95", "p99"}

    def test_empty_recorder_safe(self):
        recorder = histogram_child()
        assert recorder.mean == 0.0
        assert recorder.percentile(50) == 0.0

    def test_empty_recorder_extreme_percentiles(self):
        recorder = histogram_child()
        assert recorder.percentile(0) == 0.0
        assert recorder.percentile(100) == 0.0

    def test_extreme_percentiles_exact_beyond_reservoir(self):
        # The reservoir keeps RESERVOIR_SIZE of 2.5x as many samples, yet
        # p=0/p=100 must return the exact streamed extremes, not reservoir
        # endpoints.
        recorder = histogram_child(seed=1)
        total = RESERVOIR_SIZE * 5 // 2
        for value in range(1, total + 1):
            recorder.observe(float(value))
        assert recorder.percentile(0) == 1.0
        assert recorder.percentile(100) == float(total)

    def test_percentile_exact_while_reservoir_unsaturated(self):
        recorder = histogram_child()
        for value in (10.0, 20.0, 30.0, 40.0, 50.0):
            recorder.observe(value)
        assert recorder.percentile(50) == 30.0
        assert recorder.percentile(25) == 20.0

    def test_percentile_out_of_range_rejected(self):
        recorder = histogram_child()
        recorder.observe(1.0)
        with pytest.raises(ValueError):
            recorder.percentile(-0.1)
        with pytest.raises(ValueError):
            recorder.percentile(100.1)

    def test_single_sample_all_percentiles(self):
        recorder = histogram_child()
        recorder.observe(7.5)
        for p in (0, 1, 50, 99, 100):
            assert recorder.percentile(p) == 7.5


class TestSeriesRecorder:
    def test_windows_average(self):
        series = SeriesRecorder(window_width=10)
        for x in range(20):
            series.record(x, float(x < 10))  # 1.0 in first window, 0.0 after
        points = series.finish()
        assert len(points) == 2
        assert points[0].mean == pytest.approx(1.0)
        assert points[1].mean == pytest.approx(0.0)

    def test_window_centers(self):
        series = SeriesRecorder(window_width=10)
        series.record(0, 1.0)
        series.record(15, 2.0)
        points = series.finish()
        assert points[0].x == pytest.approx(5.0)
        assert points[1].x == pytest.approx(15.0)

    def test_empty_windows_skipped(self):
        series = SeriesRecorder(window_width=1)
        series.record(0, 1.0)
        series.record(10, 2.0)
        assert len(series.finish()) == 2

    def test_non_monotone_x_rejected(self):
        series = SeriesRecorder(window_width=10)
        series.record(25, 1.0)
        with pytest.raises(ValueError):
            series.record(3, 1.0)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            SeriesRecorder(window_width=0)


class TestZipfSampler:
    def test_samples_in_range(self):
        sampler = ZipfSampler(100, 1.0, make_rng(1))
        assert all(0 <= sampler.sample() < 100 for _ in range(500))

    def test_skew_prefers_low_ranks(self):
        sampler = ZipfSampler(1000, 1.0, make_rng(2))
        draws = [sampler.sample() for _ in range(5_000)]
        head = sum(1 for d in draws if d < 10)
        tail = sum(1 for d in draws if d >= 500)
        assert head > tail

    def test_alpha_zero_is_uniform(self):
        sampler = ZipfSampler(10, 0.0, make_rng(3))
        assert sampler.probability(0) == pytest.approx(0.1)
        assert sampler.probability(9) == pytest.approx(0.1)

    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(50, 0.9, make_rng(4))
        total = sum(sampler.probability(r) for r in range(50))
        assert total == pytest.approx(1.0)

    def test_deterministic_given_seed(self):
        a = ZipfSampler(100, 1.0, make_rng(7))
        b = ZipfSampler(100, 1.0, make_rng(7))
        assert [a.sample() for _ in range(20)] == [b.sample() for _ in range(20)]

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0, make_rng(0))
        with pytest.raises(ValueError):
            ZipfSampler(10, -1.0, make_rng(0))
        with pytest.raises(IndexError):
            ZipfSampler(10, 1.0, make_rng(0)).probability(10)


class TestOtherSamplers:
    def test_weighted_choice_respects_weights(self):
        rng = make_rng(7)
        draws = [weighted_choice([1.0, 0.0, 3.0], rng) for _ in range(2_000)]
        assert draws.count(1) == 0
        assert draws.count(2) > draws.count(0)

    def test_weighted_choice_validation(self):
        rng = make_rng(8)
        with pytest.raises(ValueError):
            weighted_choice([], rng)
        with pytest.raises(ValueError):
            weighted_choice([-1.0], rng)
        with pytest.raises(ValueError):
            weighted_choice([0.0, 0.0], rng)
