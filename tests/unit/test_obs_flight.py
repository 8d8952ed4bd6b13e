"""Unit tests for the crash flight recorder (`repro.obs.flight`)."""

import json

import pytest

from repro.faults import FaultPlan, PlanFaultInjector
from repro.obs.flight import (
    DEFAULT_CAPACITY,
    NULL_RECORDER,
    FlightRecorder,
    FlightRecorderHub,
    NullFlightRecorder,
)


class TestFlightRecorder:
    def test_records_in_order_with_detail(self):
        recorder = FlightRecorder("gw", capacity=8)
        recorder.record("enqueue", 0.5, path="/a", op="create")
        recorder.record("flush", 1.0)
        events = recorder.events()
        assert [e["kind"] for e in events] == ["enqueue", "flush"]
        assert events[0]["time_s"] == 0.5
        assert events[0]["detail"] == {"path": "/a", "op": "create"}
        assert "detail" not in events[1]  # empty detail is elided

    def test_ring_evicts_oldest(self):
        recorder = FlightRecorder("gw", capacity=3)
        for i in range(10):
            recorder.record("e", float(i), n=i)
        events = recorder.events()
        assert len(events) == 3
        assert [e["detail"]["n"] for e in events] == [7, 8, 9]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder("gw", capacity=0)

    def test_clear(self):
        recorder = FlightRecorder("gw")
        recorder.record("e")
        recorder.clear()
        assert len(recorder) == 0


class TestNullRecorder:
    def test_disabled_and_inert(self):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.record("anything", 1.0, x=1)
        assert NULL_RECORDER.events() == []
        assert len(NULL_RECORDER) == 0
        assert isinstance(NULL_RECORDER, NullFlightRecorder)


class TestHub:
    def test_recorder_is_lazily_created_and_cached(self):
        hub = FlightRecorderHub()
        a = hub.recorder("gateway-0")
        assert a is hub.recorder("gateway-0")
        assert a.capacity == DEFAULT_CAPACITY

    def test_default_capacity(self):
        hub = FlightRecorderHub()
        assert hub.recorder("x").capacity == DEFAULT_CAPACITY

    def test_dump_snapshots_every_ring(self):
        hub = FlightRecorderHub()
        hub.recorder("a").record("ev_a", 1.0)
        hub.recorder("b").record("ev_b", 2.0, n=1)
        record = hub.dump("test-reason", now=3.0)
        assert record["reason"] == "test-reason"
        assert record["time_s"] == 3.0
        assert set(record["components"]) == {"a", "b"}
        assert record["components"]["a"][0]["kind"] == "ev_a"
        assert hub.dumps == [record]
        assert len(hub) == 1

    def test_dump_writes_slugged_file(self, tmp_path):
        hub = FlightRecorderHub(dump_dir=str(tmp_path / "flight"))
        hub.recorder("gw").record("crash", 1.0, node=3)
        hub.dump("crash node #3!", now=1.0)
        files = list((tmp_path / "flight").iterdir())
        assert len(files) == 1
        assert files[0].name == "flight-001-crash-node--3-.json"
        loaded = json.loads(files[0].read_text())
        assert loaded["reason"] == "crash node #3!"
        assert loaded["components"]["gw"][0]["detail"] == {"node": 3}

    def test_dumps_are_ordinal(self, tmp_path):
        hub = FlightRecorderHub(dump_dir=str(tmp_path))
        hub.dump("first")
        hub.dump("second")
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names[0].startswith("flight-001-")
        assert names[1].startswith("flight-002-")


class TestInjectorIntegration:
    def test_silence_dumps_once_per_outage(self):
        hub = FlightRecorderHub()
        injector = PlanFaultInjector(FaultPlan(seed=1), flight=hub)
        injector.silence(3)
        injector.silence(3)  # idempotent: same outage, no second dump
        assert len(hub.dumps) == 1
        assert hub.dumps[0]["reason"] == "crash-node-3"
        injector.restore(3)
        injector.silence(3)  # a new outage dumps again
        assert len(hub.dumps) == 2
        faults = hub.recorder("faults").events()
        assert [e["kind"] for e in faults] == [
            "silence", "restore", "silence",
        ]

    def test_injector_without_hub_still_works(self):
        injector = PlanFaultInjector(FaultPlan(seed=1))
        injector.silence(3)
        injector.restore(3)
        assert injector.counts["silence"] == 1
