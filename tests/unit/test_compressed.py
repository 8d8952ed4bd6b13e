"""Unit tests for compressed Bloom filter transfer."""

import pytest

from repro.bloom.bloom_filter import BloomFilter
from repro.bloom.compressed import (
    binary_entropy,
    compress_filter,
    decompress_filter,
    entropy_bound_bytes,
    transfer_cost_report,
)


def sparse_filter(items=200, bits_per_item=16.0):
    bloom = BloomFilter.with_capacity(2_000, bits_per_item=bits_per_item)
    bloom.update(f"/c/f{i}" for i in range(items))
    return bloom


class TestRoundTrip:
    def test_lossless(self):
        bloom = sparse_filter()
        restored = decompress_filter(compress_filter(bloom))
        assert restored == bloom
        assert all(restored.query(f"/c/f{i}") for i in range(200))

    def test_empty_filter(self):
        bloom = BloomFilter(1024, 4)
        assert decompress_filter(compress_filter(bloom)) == bloom


class TestCompressionGains:
    def test_sparse_filter_compresses_well(self):
        """A lightly loaded 16-bit/file filter is mostly zeros."""
        report = transfer_cost_report(sparse_filter(items=200))
        assert report.fill_ratio < 0.1
        assert report.ratio < 0.5

    def test_dense_filter_compresses_poorly(self):
        """Near half-full filters approach incompressibility."""
        bloom = BloomFilter(2_048, 6)
        bloom.update(f"/d/f{i}" for i in range(400))  # drives fill toward 0.5
        report = transfer_cost_report(bloom)
        assert report.fill_ratio > 0.4
        assert report.ratio > 0.7

    def test_compression_between_entropy_bound_and_raw(self):
        report = transfer_cost_report(sparse_filter(items=100))
        assert report.entropy_bound_bytes <= report.compressed_bytes
        assert report.compressed_bytes <= report.raw_bytes + 64

    def test_emptier_filters_compress_better(self):
        light = transfer_cost_report(sparse_filter(items=50))
        heavy = transfer_cost_report(sparse_filter(items=1_500))
        assert light.ratio < heavy.ratio


class TestEntropy:
    def test_binary_entropy_extremes(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_binary_entropy_symmetric(self):
        assert binary_entropy(0.2) == pytest.approx(binary_entropy(0.8))

    def test_entropy_bound_positive_for_nonempty(self):
        assert entropy_bound_bytes(sparse_filter(items=10)) > 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)
