"""The transport core's retry/backoff loops must be counter-invisible.

``ReliableTransport.request`` / ``gather`` (``repro.net.reliability``)
run the retries of both transports.  The golden values below were
captured from the in-process transport when its loop still lived inline
in ``transport.py``, under a seeded fault plan; any drift in attempt
ordering, backoff draws, or wave deadlines shows up here as a counter
mismatch.  The loops' semantics are also driven through a scripted fake
wire that overrides only the seam, ``dispatch_attempt`` and
``collect_reply``.

Timeouts are deliberately generous (0.25 s real-clock per wave) so slow
CI machines cannot turn a reply that *would* have arrived into a missed
wave and perturb the retry counters.
"""

import ast
import threading
from pathlib import Path

import pytest

import repro
from repro.faults.injector import FaultPlan, PlanFaultInjector
from repro.faults.retry import RetryPolicy
from repro.net.reliability import (
    GatherResult,
    ReliableTransport,
    TransportClosed,
)
from repro.prototype.messages import Message, MessageKind
from repro.prototype.transport import InProcessTransport

GOLDEN = {
    0: {
        "ok": 39,
        "timeouts": 1,
        "messages_sent": 159,
        "replies_received": 67,
        "retries": 22,
        "exhausted": 3,
        "gather_missing": [[], [], [], [], [], [2], [1], [], [], []],
        "drop_request": 25,
        "duplicate": 5,
    },
    7: {
        "ok": 39,
        "timeouts": 1,
        "messages_sent": 176,
        "replies_received": 67,
        "retries": 39,
        "exhausted": 3,
        "gather_missing": [[2], [], [], [1], [], [], [], [], [], []],
        "drop_request": 42,
        "duplicate": 10,
    },
    42: {
        "ok": 37,
        "timeouts": 3,
        "messages_sent": 167,
        "replies_received": 65,
        "retries": 32,
        "exhausted": 5,
        "gather_missing": [[], [], [], [], [], [], [], [], [1], [0]],
        "drop_request": 37,
        "duplicate": 9,
    },
}


def _run_scenario(seed):
    plan = FaultPlan(seed=seed, drop_rate=0.3, duplicate_rate=0.1)
    injector = PlanFaultInjector(plan)
    transport = InProcessTransport(
        default_timeout_s=0.25,
        injector=injector,
        retry=RetryPolicy(max_attempts=3, timeout_s=0.01),
    )

    def serve(node_id, mailbox):
        while True:
            msg = mailbox.get()
            if msg.kind is MessageKind.STOP:
                if msg.reply_to is not None:
                    msg.reply_to.put(msg.reply(ok=True))
                return
            if msg.reply_to is not None:
                msg.reply_to.put(msg.reply(ok=True, node=node_id))

    for node_id in range(3):
        mailbox = transport.register(node_id)
        threading.Thread(
            target=serve, args=(node_id, mailbox), daemon=True
        ).start()

    ok = timeouts = 0
    for i in range(40):
        msg = Message(kind=MessageKind.PING, sender=99, payload={"i": i})
        try:
            transport.request(i % 3, msg, timeout_s=0.25)
            ok += 1
        except TimeoutError:
            timeouts += 1

    gather_missing = []
    for i in range(10):
        result = transport.gather(
            [0, 1, 2],
            lambda dest: Message(
                kind=MessageKind.PING, sender=99, payload={"g": i}
            ),
            timeout_s=0.25,
        )
        gather_missing.append(sorted(result.missing))

    snapshot = {
        "ok": ok,
        "timeouts": timeouts,
        "messages_sent": transport.messages_sent,
        "replies_received": transport.replies_received,
        "retries": transport.retries,
        "exhausted": transport.exhausted,
        "gather_missing": gather_missing,
        "drop_request": injector.counts["drop_request"],
        "duplicate": injector.counts["duplicate"],
    }

    injector.enabled = False
    for node_id in range(3):
        transport.request(
            node_id,
            Message(kind=MessageKind.STOP, sender=99, payload={}),
            timeout_s=1.0,
            count=False,
        )
    return snapshot


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_hoisted_retry_layer_reproduces_pre_hoist_counters(seed):
    assert _run_scenario(seed) == GOLDEN[seed]


# ----------------------------------------------------------------------
# Driver semantics against a scripted fake wire
# ----------------------------------------------------------------------
class _FakeWire(ReliableTransport):
    """Scripted wire: per-call outcomes, full call log."""

    def __init__(self, outcomes, policy):
        super().__init__(retry=policy)
        # outcomes: list of "reply" | "silent" | "dropped" | "closed"
        self.outcomes = list(outcomes)
        self.calls = []
        self._cursor = 0
        self._outcome_by_message = {}

    def _next_outcome(self):
        outcome = self.outcomes[self._cursor]
        self._cursor += 1
        return outcome

    def dispatch_attempt(self, dest, message, count):
        outcome = self._next_outcome()
        self.calls.append(("dispatch", dest, message.payload.get("n"), outcome))
        if outcome == "closed":
            raise TransportClosed(f"node {dest} is gone")
        self._outcome_by_message[id(message)] = outcome
        return outcome != "dropped"

    def collect_reply(self, message, timeout_s):
        if self._outcome_by_message.get(id(message)) == "reply":
            return message.reply(ok=True)
        return None


def _msg(n=0):
    return Message(kind=MessageKind.PING, sender=1, payload={"n": n})


def test_request_skips_wait_for_known_dropped_attempts():
    wire = _FakeWire(["dropped", "reply"], RetryPolicy(max_attempts=3))
    reply = wire.request(5, _msg(), timeout_s=10.0)
    assert reply.kind is MessageKind.REPLY
    assert wire.retries == 1 and wire.exhausted == 0


def test_request_exhausts_budget_with_exact_message():
    wire = _FakeWire(["silent", "silent"], RetryPolicy(max_attempts=2))
    with pytest.raises(TimeoutError) as excinfo:
        wire.request(7, _msg(3), timeout_s=0.0)
    assert "no reply from node 7" in str(excinfo.value)
    assert "after 2 attempt(s)" in str(excinfo.value)
    assert wire.retries == 1 and wire.exhausted == 1


def test_request_propagates_transport_closed():
    wire = _FakeWire(["closed"], RetryPolicy(max_attempts=3))
    with pytest.raises(TransportClosed):
        wire.request(9, _msg(), timeout_s=0.0)
    assert wire.exhausted == 0


def test_gather_reports_closed_peers_as_unreachable():
    # dest 0 answers, dest 1 is gone: partial result, no exception.
    wire = _FakeWire(["reply", "closed"], RetryPolicy(max_attempts=2))
    result = wire.gather([0, 1], lambda dest: _msg(dest), timeout_s=0.0)
    assert isinstance(result, GatherResult)
    assert sorted(result.replies) == [0]
    assert result.unreachable == (1,)
    assert result.missing == ()
    assert not result.complete and len(result) == 1


def test_gather_retries_silent_peers_then_reports_missing():
    # dest 0 replies first wave; dest 1 silent both waves.
    wire = _FakeWire(["reply", "silent", "silent"], RetryPolicy(max_attempts=2))
    result = wire.gather([0, 1], lambda dest: _msg(dest), timeout_s=0.0)
    assert sorted(result.replies) == [0]
    assert result.missing == (1,)
    assert wire.retries == 1 and wire.exhausted == 1
    retried = [c for c in wire.calls if c[0] == "dispatch" and c[3] == "silent"]
    assert len(retried) == 2


def _imports_of(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_nothing_under_src_imports_asyncio():
    """Both transports have one threading model — whoever holds a frame
    delivers it.  An event loop coming back under ``src/`` would be a
    second one."""
    root = Path(repro.__file__).resolve().parent
    offenders = [
        str(source.relative_to(root))
        for source in sorted(root.rglob("*.py"))
        for name in _imports_of(ast.parse(source.read_text(encoding="utf-8")))
        if name.split(".")[0] == "asyncio"
    ]
    assert offenders == []


def test_the_import_check_sees_asyncio():
    tree = ast.parse(
        "import os, asyncio.tasks\n"
        "def f():\n"
        "    from asyncio import Queue\n"
        "from . import sibling\n"
    )
    assert list(_imports_of(tree)) == ["os", "asyncio.tasks", "asyncio"]
