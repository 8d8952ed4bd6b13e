"""Unit tests for GHBAConfig and query result types."""

import pytest

from repro.core.config import GHBAConfig
from repro.core.query import QueryLevel, QueryResult


class TestConfig:
    def test_defaults_valid(self):
        config = GHBAConfig()
        assert config.max_group_size >= 1
        assert config.filter_num_bits > 0
        assert config.filter_num_hashes >= 1

    def test_filter_geometry_derivation(self):
        config = GHBAConfig(expected_files_per_mds=1000, bits_per_file=16.0)
        assert config.filter_num_bits == 16_000
        assert config.filter_num_hashes == 11  # round(16 ln 2)
        assert config.filter_bytes == 2_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_group_size": 0},
            {"bits_per_file": 0},
            {"expected_files_per_mds": 0},
            {"lru_capacity": 0},
            {"update_threshold_bits": -1},
            {"heartbeat_interval_s": 0},
            {"memory_budget_bytes": -1},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GHBAConfig(**kwargs)

    def test_frozen(self):
        config = GHBAConfig()
        with pytest.raises(Exception):
            config.max_group_size = 99  # type: ignore[misc]


class TestQueryLevel:
    def test_ordering_values(self):
        assert QueryLevel.L1.value < QueryLevel.L2.value < QueryLevel.L3.value
        assert QueryLevel.L3.value < QueryLevel.L4.value

    def test_labels(self):
        assert QueryLevel.L1.label == "L1"
        assert QueryLevel.NEGATIVE.label == "L4-negative"


class TestQueryResult:
    def test_found(self):
        result = QueryResult(
            path="/f", home_id=3, level=QueryLevel.L1, latency_ms=0.1,
            messages=2, false_forwards=0, origin_id=1,
        )
        assert result.found

    def test_negative_not_found(self):
        result = QueryResult(
            path="/f", home_id=None, level=QueryLevel.NEGATIVE,
            latency_ms=1.0, messages=10, false_forwards=0, origin_id=1,
        )
        assert not result.found
