"""Unit tests for the fault-injection layer (plan, injector, retry,
transport recovery, heartbeat drills)."""

import queue
import time

import pytest

from repro.faults import (
    DEFAULT_RETRY,
    NO_RETRY,
    NULL_INJECTOR,
    CrashEvent,
    FaultPlan,
    Partition,
    PlanFaultInjector,
    RetryPolicy,
    run_drill,
)
from repro.faults import retry
from repro.faults.__main__ import DetectionSpec
from repro.faults.__main__ import main as faults_main
from repro.prototype.messages import Message, MessageKind
from repro.prototype.transport import InProcessTransport, TransportClosed
from repro.sim.rng import make_rng


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(delay_rate=-0.1)

    def test_crashes_must_be_sorted(self):
        with pytest.raises(ValueError):
            FaultPlan(
                crashes=(CrashEvent(2.0, 1), CrashEvent(1.0, 2))
            )

    def test_crash_restore_ordering(self):
        with pytest.raises(ValueError):
            CrashEvent(at_s=1.0, node_id=0, restore_at_s=0.5)

    def test_partition_severs_only_across_island(self):
        part = Partition(start_s=0.0, end_s=1.0, island=frozenset({0, 1}))
        assert part.severs(0, 2)
        assert part.severs(2, 1)
        assert not part.severs(0, 1)
        assert not part.severs(2, 3)

    def test_client_sender_never_partitioned(self):
        part = Partition(start_s=0.0, end_s=1.0, island=frozenset({0}))
        assert not part.severs(-1, 0)
        assert not part.severs(-1, 2)

    def test_severed_respects_window(self):
        plan = FaultPlan(
            partitions=(
                Partition(start_s=1.0, end_s=2.0, island=frozenset({0})),
            )
        )
        assert not plan.severed(0, 1, 0.5)
        assert plan.severed(0, 1, 1.5)
        assert not plan.severed(0, 1, 2.0)  # end is exclusive


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_grows_and_caps(self, monkeypatch):
        monkeypatch.setattr(retry, "MAX_DELAY_S", 0.025)
        monkeypatch.setattr(retry, "JITTER", 0.0)
        policy = RetryPolicy(max_attempts=5)
        rng = make_rng(0)
        delays = [policy.backoff_s(k, rng) for k in range(4)]
        assert delays == [0.010, 0.020, 0.025, 0.025]

    def test_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy()
        a = [policy.backoff_s(0, make_rng(3)) for _ in range(5)]
        b = [policy.backoff_s(0, make_rng(3)) for _ in range(5)]
        assert a == b  # fresh same-seed RNGs draw identically
        for value in a:
            assert 0.010 <= value < 0.015

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        assert NO_RETRY.max_attempts == 1
        assert DEFAULT_RETRY.max_attempts == 3


# ----------------------------------------------------------------------
# Injectors
# ----------------------------------------------------------------------
def _oneway(sender=0):
    return Message(kind=MessageKind.PING, sender=sender)


def _request(sender=0):
    message = Message(kind=MessageKind.PING, sender=sender)
    message.reply_to = queue.Queue()
    return message


class TestNullInjector:
    def test_disabled_and_inert(self):
        assert not NULL_INJECTOR.enabled
        verdict = NULL_INJECTOR.on_send(3, _oneway())
        assert verdict.deliver and verdict.copies == 1 and verdict.delay_s == 0
        assert NULL_INJECTOR.filter_targets(0, [1, 2]) == ([1, 2], [])
        assert not NULL_INJECTOR.is_silenced(1)
        NULL_INJECTOR.silence(1)  # no-ops must not raise or record
        NULL_INJECTOR.restore(1)
        assert not NULL_INJECTOR.is_silenced(1)


class TestPlanFaultInjector:
    def test_same_seed_same_fault_sequence(self):
        plan = FaultPlan(seed=11, drop_rate=0.2, delay_rate=0.3, duplicate_rate=0.1)
        a, b = PlanFaultInjector(plan), PlanFaultInjector(plan)
        verdicts_a = [a.on_send(1, _oneway()) for _ in range(200)]
        verdicts_b = [b.on_send(1, _oneway()) for _ in range(200)]
        assert verdicts_a == verdicts_b
        assert a.counts == b.counts
        assert a.counts["drop_oneway"] > 0
        assert a.counts["delay"] > 0
        assert a.counts["duplicate"] > 0

    def test_request_vs_oneway_accounting(self):
        plan = FaultPlan(seed=1, drop_rate=1.0)
        injector = PlanFaultInjector(plan)
        injector.on_send(1, _request())
        injector.on_send(1, _oneway())
        assert injector.counts["drop_request"] == 1
        assert injector.counts["drop_oneway"] == 1
        assert injector.dropped_requests == 1
        assert injector.dropped_oneways == 1

    def test_partition_cuts_by_clock(self):
        plan = FaultPlan(
            partitions=(
                Partition(start_s=1.0, end_s=2.0, island=frozenset({1})),
            )
        )
        injector = PlanFaultInjector(plan)
        assert injector.on_send(1, _request(sender=0)).deliver
        injector.advance(1.5)
        verdict = injector.on_send(1, _request(sender=0))
        assert not verdict.deliver and verdict.reason == "partition"
        # Client traffic still flows into the island.
        assert injector.on_send(1, _request(sender=-1)).deliver
        injector.advance(2.5)
        assert injector.on_send(1, _request(sender=0)).deliver

    def test_clock_cannot_go_backward(self):
        injector = PlanFaultInjector(FaultPlan())
        injector.advance(2.0)
        with pytest.raises(ValueError):
            injector.advance(1.0)

    def test_filter_targets_drops_silenced_and_severed(self):
        plan = FaultPlan(
            partitions=(
                Partition(start_s=0.0, end_s=9.0, island=frozenset({2})),
            )
        )
        injector = PlanFaultInjector(plan)
        injector.silence(3)
        reachable, lost = injector.filter_targets(0, [1, 2, 3])
        assert reachable == [1]
        assert sorted(lost) == [2, 3]
        injector.restore(3)
        reachable, _ = injector.filter_targets(0, [1, 3])
        assert reachable == [1, 3]

    def test_sim_and_transport_streams_independent(self):
        plan = FaultPlan(seed=5, drop_rate=0.3)
        lone = PlanFaultInjector(plan)
        baseline = [lone.on_send(1, _oneway()).deliver for _ in range(100)]
        mixed = PlanFaultInjector(plan)
        outcomes = []
        for index in range(100):
            if index % 3 == 0:  # interleave sim-side draws
                mixed.filter_targets(0, [1, 2])
            outcomes.append(mixed.on_send(1, _oneway()).deliver)
        assert outcomes == baseline


# ----------------------------------------------------------------------
# Transport: retry, gather partial failure, shared deadline
# ----------------------------------------------------------------------
class EchoNode:
    """Minimal mailbox consumer: replies to everything immediately."""

    def __init__(self, transport, node_id, delay_s=0.0):
        import threading

        self.mailbox = transport.register(node_id)
        self.delay_s = delay_s
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        while True:
            message = self.mailbox.get()
            if message.kind is MessageKind.STOP:
                break
            if self.delay_s:
                time.sleep(self.delay_s)
            if message.reply_to is not None:
                message.reply_to.put(message.reply(ok=True))

    def stop(self):
        self.mailbox.put(Message(kind=MessageKind.STOP, sender=-1))
        self.thread.join(timeout=5)


class TestTransportRecovery:
    def test_retry_recovers_from_drops(self):
        plan = FaultPlan(seed=2, drop_rate=0.4)
        transport = InProcessTransport(
            injector=PlanFaultInjector(plan),
            retry=RetryPolicy(max_attempts=12),
        )
        node = EchoNode(transport, 0)
        try:
            for _ in range(50):
                reply = transport.request(0, _request_message(), timeout_s=5)
                assert reply.payload["ok"]
            assert transport.retries > 0
            assert transport.exhausted == 0
        finally:
            node.stop()

    def test_exhaustion_raises_and_counts(self):
        plan = FaultPlan(seed=2, drop_rate=1.0)
        transport = InProcessTransport(
            injector=PlanFaultInjector(plan),
            retry=RetryPolicy(max_attempts=3),
        )
        node = EchoNode(transport, 0)
        try:
            with pytest.raises(TimeoutError):
                transport.request(0, _request_message(), timeout_s=5)
            assert transport.retries == 2
            assert transport.exhausted == 1
        finally:
            node.stop()

    def test_dropped_requests_reconcile(self):
        plan = FaultPlan(seed=9, drop_rate=0.5)
        injector = PlanFaultInjector(plan)
        transport = InProcessTransport(
            injector=injector, retry=RetryPolicy(max_attempts=3)
        )
        node = EchoNode(transport, 0)
        try:
            for _ in range(60):
                try:
                    transport.request(0, _request_message(), timeout_s=5)
                except TimeoutError:
                    pass
            assert injector.dropped_requests == (
                transport.retries + transport.exhausted
            )
        finally:
            node.stop()

    def test_gather_returns_partial_results(self):
        """A dead destination must not discard the replies that arrived."""
        transport = InProcessTransport(retry=NO_RETRY)
        nodes = [EchoNode(transport, nid) for nid in range(3)]
        transport.register(3)  # registered but nobody consumes: silent
        try:
            result = transport.gather(
                [0, 1, 2, 3],
                lambda dest: _request_message(),
                timeout_s=0.3,
            )
            assert sorted(result.replies) == [0, 1, 2]
            assert result.missing == (3,)
            assert not result.complete
        finally:
            for node in nodes:
                node.stop()

    def test_gather_reports_unreachable(self):
        transport = InProcessTransport(retry=NO_RETRY)
        node = EchoNode(transport, 0)
        try:
            result = transport.gather(
                [0, 99], lambda dest: _request_message(), timeout_s=1
            )
            assert sorted(result.replies) == [0]
            assert result.unreachable == (99,)
        finally:
            node.stop()

    def test_gather_shares_one_deadline_per_wave(self):
        """Total wait is bounded by the timeout, not len(dests) * timeout."""
        transport = InProcessTransport(retry=NO_RETRY)
        silent = [transport.register(nid) for nid in range(6)]
        start = time.monotonic()
        result = transport.gather(
            range(6), lambda dest: _request_message(), timeout_s=0.4
        )
        elapsed = time.monotonic() - start
        assert len(result.replies) == 0
        assert result.missing == tuple(range(6))
        assert elapsed < 6 * 0.4 * 0.8  # far below the per-dest worst case

    def test_gather_retries_silent_destinations(self):
        plan = FaultPlan(seed=4, drop_rate=0.6)
        transport = InProcessTransport(
            injector=PlanFaultInjector(plan),
            retry=RetryPolicy(max_attempts=15),
        )
        nodes = [EchoNode(transport, nid) for nid in range(4)]
        try:
            result = transport.gather(
                range(4), lambda dest: _request_message(), timeout_s=5
            )
            assert sorted(result.replies) == [0, 1, 2, 3]
            assert result.complete
            assert transport.retries > 0
        finally:
            for node in nodes:
                node.stop()

    def test_null_injector_counts_unchanged(self):
        """The fault layer's default must not perturb wire accounting."""
        transport = InProcessTransport()
        node = EchoNode(transport, 0)
        try:
            transport.request(0, _request_message(), timeout_s=5)
            assert transport.messages_sent == 2
            assert transport.replies_received == 1
            assert transport.retries == 0
            assert transport.exhausted == 0
        finally:
            node.stop()


def _request_message():
    return Message(kind=MessageKind.PING, sender=-1)


# ----------------------------------------------------------------------
# Heartbeat detection drill
# ----------------------------------------------------------------------
class TestDetectionDrill:
    def test_drill_detects_within_bound(self):
        report = run_drill(num_servers=9, seed=0)
        assert report.results  # at least one scheduled crash
        assert report.all_detected
        assert report.within_bound
        for result in report.results:
            assert result.detection_latency_s <= report.bound_s
            assert result.detected_by != result.node_id

    def test_drill_is_deterministic(self):
        a = run_drill(num_servers=9, seed=3)
        b = run_drill(num_servers=9, seed=3)
        assert [(r.node_id, r.detected_at_s) for r in a.results] == [
            (r.node_id, r.detected_at_s) for r in b.results
        ]

    def test_drill_render_mentions_verdict(self):
        report = run_drill(num_servers=6, seed=1)
        assert "PASS" in report.render()

    def test_witness_is_a_live_peer(self):
        # Node 1 crashes at 2.5 s, before node 0's silence is noticed at
        # 5.0 s: only node 2 is left alive to witness either.
        report = run_drill(num_servers=3, seed=0)
        assert [(r.node_id, r.detected_by) for r in report.results] == [(0, 2), (1, 2)]
        assert report.within_bound

    def test_no_live_witness_is_no_detection(self):
        report = run_drill(num_servers=2, seed=0)
        assert [r.detected for r in report.results] == [False, False]
        assert "verdict: FAIL" in report.render()

    def test_drill_needs_three_servers(self, capsys):
        with pytest.raises(ValueError, match="at least 3"):
            DetectionSpec(servers=2)
        with pytest.raises(SystemExit) as excinfo:
            faults_main(["drill", "--servers", "2"])
        assert excinfo.value.code == 2
        assert "servers must be at least 3, got 2" in capsys.readouterr().err
