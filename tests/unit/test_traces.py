"""Unit tests for trace records, profiles, generation, scaling and I/O."""

import pytest

from repro.traces.profiles import HP_PROFILE, INS_PROFILE, PROFILES, RES_PROFILE
from repro.traces.records import MetadataOp, TraceRecord
from repro.traces.scaling import intensify, subtrace
from repro.traces.synthetic import (
    SyntheticTraceGenerator,
    build_file_population,
    generate_trace,
)
from repro.traces.workloads import compute_stats


class TestTraceRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRecord(timestamp=-1.0, op=MetadataOp.STAT, path="/f")
        with pytest.raises(ValueError):
            TraceRecord(timestamp=0.0, op=MetadataOp.STAT, path="no-slash")

    def test_rename_requires_new_path(self):
        with pytest.raises(ValueError):
            TraceRecord(timestamp=0.0, op=MetadataOp.RENAME, path="/f")
        with pytest.raises(ValueError):
            TraceRecord(
                timestamp=0.0, op=MetadataOp.STAT, path="/f", new_path="/g"
            )

    def test_op_classification(self):
        assert MetadataOp.STAT.is_lookup
        assert MetadataOp.OPEN.is_lookup
        assert not MetadataOp.CREATE.is_lookup
        assert MetadataOp.RENAME.mutates_namespace
        assert not MetadataOp.STAT.mutates_namespace

    def test_relocated(self):
        record = TraceRecord(timestamp=1.0, op=MetadataOp.STAT, path="/f", uid=3)
        moved = record.relocated(
            subtrace=2, path_prefix="/tif2", uid_offset=100, host_offset=200
        )
        assert moved.path == "/tif2/f"
        assert moved.uid == 103
        assert moved.host == 200
        assert moved.timestamp == 1.0
        assert moved.subtrace == 2


class TestProfiles:
    def test_all_profiles_registered(self):
        assert set(PROFILES) == {"HP", "INS", "RES"}

    def test_res_is_stat_dominated(self):
        """Table 3: RES has ~8x more stats than opens+closes."""
        mix = RES_PROFILE.op_mix
        assert mix[MetadataOp.STAT] / sum(mix.values()) > 0.8

    def test_ins_mix_matches_table3_ratios(self):
        mix = INS_PROFILE.op_mix
        # Table 3: stat 4076 / (open 1196 + close 1215 + stat 4076) ~ 0.62
        assert 0.55 < mix[MetadataOp.STAT] / sum(mix.values()) < 0.70

    def test_hp_active_fraction_matches_table4(self):
        # Table 4: 0.969M active of 4.0M files.
        assert HP_PROFILE.active_file_fraction == pytest.approx(0.24, abs=0.02)

    def test_paper_tifs(self):
        assert RES_PROFILE.default_tif == 100
        assert INS_PROFILE.default_tif == 30
        assert HP_PROFILE.default_tif == 40


class TestPopulation:
    def test_population_size(self):
        paths = build_file_population(HP_PROFILE, 500)
        assert len(paths) == 500
        assert len(set(paths)) == 500  # unique

    def test_paths_absolute(self):
        assert all(
            p.startswith("/") for p in build_file_population(INS_PROFILE, 50)
        )

    def test_deterministic(self):
        assert build_file_population(HP_PROFILE, 100, seed=1) == (
            build_file_population(HP_PROFILE, 100, seed=1)
        )


class TestGenerator:
    def test_generates_exactly_n_ops(self):
        records = generate_trace(HP_PROFILE, 200, 1_000, seed=3)
        assert len(records) == 1_000

    def test_timestamps_non_decreasing(self):
        records = generate_trace(INS_PROFILE, 200, 500, seed=4)
        times = [r.timestamp for r in records]
        assert times == sorted(times)

    def test_open_close_pairing(self):
        """Every CLOSE follows an OPEN of the same path."""
        records = generate_trace(HP_PROFILE, 200, 2_000, seed=5)
        open_counts = {}
        for record in records:
            if record.op is MetadataOp.OPEN:
                open_counts[record.path] = open_counts.get(record.path, 0) + 1
            elif record.op is MetadataOp.CLOSE:
                assert open_counts.get(record.path, 0) > 0
                open_counts[record.path] -= 1

    def test_close_count_tracks_open_count(self):
        records = generate_trace(HP_PROFILE, 300, 5_000, seed=6)
        stats = compute_stats(records)
        opens = stats.count(MetadataOp.OPEN)
        closes = stats.count(MetadataOp.CLOSE)
        assert closes <= opens
        assert closes >= opens * 0.7  # most closes land inside the window

    def test_op_mix_roughly_matches_profile(self):
        records = generate_trace(RES_PROFILE, 300, 8_000, seed=7)
        stats = compute_stats(records)
        assert stats.op_fraction(MetadataOp.STAT) > 0.7

    def test_deterministic_given_seed(self):
        a = generate_trace(HP_PROFILE, 100, 300, seed=9)
        b = generate_trace(HP_PROFILE, 100, 300, seed=9)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticTraceGenerator(HP_PROFILE, 100, ops_per_second=0)
        with pytest.raises(ValueError):
            SyntheticTraceGenerator(HP_PROFILE, 100, close_delay_mean=0)


class TestIntensify:
    def base(self):
        return generate_trace(HP_PROFILE, 100, 400, seed=11)

    def test_multiplies_record_count(self):
        base = self.base()
        assert len(intensify(base, 3)) == 3 * len(base)

    def test_tif_one_is_copy(self):
        base = self.base()
        assert intensify(base, 1) == base

    def test_subtraces_disjoint(self):
        """Paper: subtraces forced onto disjoint users/hosts/directories."""
        base = self.base()
        scaled = intensify(base, 4)
        by_subtrace = {}
        for record in scaled:
            by_subtrace.setdefault(record.subtrace, set()).add(record.path)
        paths = list(by_subtrace.values())
        for i in range(len(paths)):
            for j in range(i + 1, len(paths)):
                assert not (paths[i] & paths[j])

    def test_uid_ranges_disjoint(self):
        scaled = intensify(self.base(), 3)
        uids = {}
        for record in scaled:
            uids.setdefault(record.subtrace, set()).add(record.uid)
        assert not (uids[0] & uids[1])
        assert not (uids[1] & uids[2])

    def test_merged_by_timestamp(self):
        scaled = intensify(self.base(), 5)
        times = [r.timestamp for r in scaled]
        assert times == sorted(times)

    def test_preserves_op_histogram(self):
        """Paper: the combined trace keeps the same call histogram."""
        base = self.base()
        base_stats = compute_stats(base)
        scaled_stats = compute_stats(intensify(base, 4))
        for op in MetadataOp:
            assert scaled_stats.count(op) == 4 * base_stats.count(op)

    def test_timing_within_subtrace_preserved(self):
        base = self.base()
        sub = subtrace(base, 2)
        assert [r.timestamp for r in sub] == [r.timestamp for r in base]

    def test_validation(self):
        with pytest.raises(ValueError):
            intensify(self.base(), 0)
        with pytest.raises(ValueError):
            subtrace(self.base(), -1)


class TestWorkloadStats:
    def test_counts(self):
        records = [
            TraceRecord(0.0, MetadataOp.OPEN, "/a", uid=1, host=1),
            TraceRecord(1.0, MetadataOp.CLOSE, "/a", uid=1, host=2),
            TraceRecord(2.0, MetadataOp.STAT, "/b", uid=2, host=1),
        ]
        stats = compute_stats(records)
        assert stats.total_ops == 3
        assert stats.num_users == 2
        assert stats.num_hosts == 2
        assert stats.num_active_files == 2
        assert stats.duration == 2.0

    def test_rename_counts_both_paths(self):
        records = [
            TraceRecord(0.0, MetadataOp.RENAME, "/a", new_path="/b"),
        ]
        assert compute_stats(records).num_active_files == 2
