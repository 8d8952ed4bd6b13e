"""Unit tests for the gateway scenario engine (repro.gateway.scenario)
and the surface of its CLI."""

import dataclasses
import re

import pytest

from repro.gateway.__main__ import main as gateway_main
from repro.gateway.scenario import ScenarioSpec, replay
from repro.obs.registry import percentile
from repro.scenario import build_fleet
from repro.traces.records import MetadataOp, TraceRecord


def _record(t, op, path="/a", new_path=None):
    return TraceRecord(timestamp=t, op=op, path=path, new_path=new_path or "")


class Recorder:
    """Logs every call so order and grouping can be asserted."""

    def __init__(self):
        self.calls = []

    def advance(self, now):
        self.calls.append(("advance", now))

    def lookups(self, batch, now):
        self.calls.append(("lookups", tuple(i for i, _ in batch), now))

    def create(self, index, record, now):
        self.calls.append(("create", index, now))

    def unlink(self, index, record, now):
        self.calls.append(("unlink", index, now))

    def rename(self, index, record, now):
        self.calls.append(("rename", index, now))


TRACE = [
    _record(0.1, MetadataOp.STAT),
    _record(0.2, MetadataOp.OPEN),
    _record(0.3, MetadataOp.STAT),
    _record(0.4, MetadataOp.CREATE, "/new"),
    _record(0.5, MetadataOp.STAT),
    _record(0.6, MetadataOp.UNLINK, "/new"),
    _record(0.7, MetadataOp.RENAME, "/a", "/b"),
    _record(0.8, MetadataOp.STAT),
]


class TestReplay:
    def test_every_op_reaches_its_handler_once_in_trace_order(self):
        run = Recorder()
        end = replay(TRACE, run, clients=2, advance=run.advance)
        assert end == 0.8
        work = [call for call in run.calls if call[0] != "advance"]
        assert work == [
            # Ticks of two clients, stamped by the arrival that filled them.
            ("lookups", (0, 1), 0.2),
            # A mutation flushes the open (short) tick at its own time
            # first, so effects keep trace order.
            ("lookups", (2,), 0.4),
            ("create", 3, 0.4),
            ("lookups", (4,), 0.6),
            ("unlink", 5, 0.6),
            ("rename", 6, 0.7),
            # The tail tick flushes at the last timestamp.
            ("lookups", (7,), 0.8),
        ]

    def test_fault_clock_advances_before_each_record(self):
        run = Recorder()
        replay(TRACE, run, clients=2, advance=run.advance)
        clock = [call[1] for call in run.calls if call[0] == "advance"]
        assert clock == [record.timestamp for record in TRACE]
        # ... and strictly before the work at that timestamp.
        for position, call in enumerate(run.calls):
            if call[0] != "advance":
                assert ("advance", call[-1]) in run.calls[:position]

    def test_single_client_ticks_every_lookup_alone(self):
        run = Recorder()
        replay(TRACE, run, advance=run.advance)
        ticks = [call[1] for call in run.calls if call[0] == "lookups"]
        assert ticks == [(0,), (1,), (2,), (4,), (7,)]

    def test_window_ticks_include_empty_windows(self):
        lookups = [_record(t, MetadataOp.STAT) for t in (0.01, 0.02, 0.12)]
        run = Recorder()
        end = replay(lookups, run, tick_s=0.05, advance=run.advance)
        assert run.calls == [
            # The fault clock moves per window, right before its tick.
            ("advance", 0.05),
            ("lookups", (0, 1), 0.05),
            ("advance", pytest.approx(0.10)),
            ("lookups", (), pytest.approx(0.10)),  # empty window still ticks
            ("lookups", (2,), pytest.approx(0.15)),
        ]
        assert end == pytest.approx(0.15)

    def test_empty_trace(self):
        run = Recorder()
        assert replay([], run, clients=4) == 0.0
        assert run.calls == []


class TestSpecAndFleet:
    def test_spec_is_frozen(self):
        spec = ScenarioSpec(seed=7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 8
        assert dataclasses.replace(spec, chaos=True).chaos and not spec.chaos

    @pytest.mark.parametrize(
        "field", ["servers", "files", "ops", "cohort", "tenants", "flush_max_pending"]
    )
    def test_spec_range_checks_are_usage_errors(self, field, capsys):
        with pytest.raises(ValueError, match=field):
            ScenarioSpec(**{field: 0})
        flag = "--" + field.replace("_", "-")
        with pytest.raises(SystemExit) as excinfo:
            gateway_main(["bench", flag, "0"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    def test_gateway_config_burst_scales_with_clients(self):
        assert ScenarioSpec(clients=8).gateway_config().burst == 64.0
        assert ScenarioSpec(clients=32).gateway_config().burst == 128.0
        assert ScenarioSpec().gateway_config(writeback=True).writeback

    def test_build_fleet_is_populated_and_synchronized(self):
        paths = [f"/f/d{i % 3}/f{i}" for i in range(60)]
        fleet = build_fleet(4, len(paths), 3, paths, group_size=2)
        assert sum(s.file_count for s in fleet.servers.values()) == 60
        assert fleet.config.expected_files_per_mds == 256  # the floor
        result = fleet.query(paths[0])
        assert result.found and result.home_id == fleet.home_of(paths[0])

    def test_percentile_nearest_rank(self):
        assert percentile([], 50) == 0.0
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0
        assert percentile([3.0, 1.0, 2.0], 0) == 1.0
        assert percentile([3.0, 1.0, 2.0], 100) == 3.0
        assert percentile(list(range(101)), 99) == 99


#: Every ``bench`` flag, with the caller that keeps it alive.  A flag no
#: CI step, test, example or documented command line passes becomes a
#: ``ScenarioSpec`` default instead.
ALLOWED_FLAGS = {
    "--help": "argparse",
    "--seed": "ci.yml scenarios matrix",
    "--json": "ci.yml scenarios matrix",
    "--chaos": "ci.yml scenarios matrix (gateway, writeback)",
    "--cohort": "ci.yml scenarios matrix",
    "--writeback": "ci.yml scenarios matrix",
    "--tenants": "ci.yml scenarios matrix",
    "--ops": "ci.yml small-cohort smoke, obs tracing-identity step",
    "--files": "ci.yml small-cohort smoke",
    "--servers": "tests/integration/test_gateway_client.py CLI test",
    "--profile": "EXPERIMENTS.md 'Gateway tier'",
    "--trace-out": "ci.yml obs tracing-identity step",
    "--trace-rate": "EXPERIMENTS.md 'Gateway cohort'",
    "--tenant-zipf": "EXPERIMENTS.md / DESIGN.md §16 tenant sweep",
    "--tenant-rates": "EXPERIMENTS.md 'Tenant fairness'",
    "--flush-max-pending": "EXPERIMENTS.md 'Write-back' flush-policy sweep",
    "--flush-age-s": "EXPERIMENTS.md 'Write-back' flush-policy sweep",
    "--flight-dir": "no caller: fault forensics (a red gate dumps its rings)",
}


def test_bench_help_lists_only_flags_with_a_caller(capsys):
    with pytest.raises(SystemExit) as excinfo:
        gateway_main(["bench", "-h"])
    assert excinfo.value.code == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags - set(ALLOWED_FLAGS) == set(), (
        "new bench flag without a named caller: make it a ScenarioSpec "
        "default, or add the caller to ALLOWED_FLAGS"
    )
    assert set(ALLOWED_FLAGS) - flags == set(), "stale allow-list entry"
    assert len(flags) <= 18
