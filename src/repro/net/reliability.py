"""Transport-agnostic reliability: bounded retry with backoff, partial
multicast results, the shared unreachable-peer vocabulary, and the
transport core both wires inherit.

The in-process and the TCP transport need identical recovery semantics
(same attempt budget, same backoff draws, same partial-failure shape)
and identical accounting, so :class:`ReliableTransport` holds both once
and a transport adds only how a message physically reaches its
destination.  Its ``request`` and ``gather`` run the retry loops and
reach the wire only through ``dispatch_attempt`` and ``collect_reply``,
the seam a subclass (or a test's scripted fake) overrides.

Attempt ordering, one backoff draw per retry wave and the shared
per-wave gather deadline are pinned by a regression test (retry and
exhausted totals under a seeded fault plan).
"""

from __future__ import annotations

import dataclasses
import queue
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.faults.injector import FaultInjector, NULL_INJECTOR
from repro.faults.retry import DEFAULT_RETRY, RetryPolicy


class TransportClosed(Exception):
    """Raised when sending to a deregistered or unreachable node."""


@dataclass
class GatherResult:
    """Outcome of one multicast: what answered, what did not.

    A missing destination is *not* an error: callers degrade (fall back to
    a wider broadcast, proceed with partial coverage) instead of aborting.

    Attributes
    ----------
    replies:
        ``{dest: reply}`` for every destination that answered.
    missing:
        Destinations that never replied within the retry budget.
    unreachable:
        Destinations whose endpoint is gone (crashed / deregistered
        nodes in-process, connection-refused peers over TCP).
    """

    replies: Dict[int, object] = field(default_factory=dict)
    missing: Tuple[int, ...] = ()
    unreachable: Tuple[int, ...] = ()

    @property
    def complete(self) -> bool:
        return not self.missing and not self.unreachable

    def __len__(self) -> int:
        return len(self.replies)


class ReliableTransport:
    """What every transport does the same way, whatever the wire: count
    messages, consult the fault injector on every send, recover lost
    replies (``request`` / ``gather`` retry over ``dispatch_attempt`` /
    ``collect_reply``) and export the retry metrics; it also keeps the
    mailboxes of the nodes served here.  A subclass supplies the physical
    steps: ``_route(dest)``, called with the counter lock held, resolves
    ``dest`` to what ``_deliver`` needs or raises :class:`TransportClosed`
    when it is known gone before anything goes on the wire;
    ``_deliver(route, message, copies)`` puts the copies on the wire.

    Parameters
    ----------
    default_timeout_s:
        Real-clock wait per request attempt when no explicit timeout is
        given.
    injector:
        Fault layer consulted on every send; defaults to the zero-overhead
        :data:`~repro.faults.injector.NULL_INJECTOR`.
    retry:
        Retry/backoff policy for ``request`` and ``gather``.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when given,
        retries and exhaustions become counters and backoffs a histogram.
    """

    def __init__(
        self,
        default_timeout_s: float = 30.0,
        injector: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        metrics=None,
    ) -> None:
        self._lock = threading.Lock()
        self._mailboxes: Dict[int, queue.SimpleQueue] = {}
        self._messages_sent = 0
        self._replies_received = 0
        self._default_timeout = default_timeout_s
        self.injector: FaultInjector = (
            injector if injector is not None else NULL_INJECTOR
        )
        self.retry: RetryPolicy = retry if retry is not None else DEFAULT_RETRY
        # Jitter draws are seeded so a seeded soak reproduces its backoffs.
        self._retry_rng = random.Random(0)
        self._retries = 0
        self._exhausted = 0
        self._retries_counter = None
        self._exhausted_counter = None
        self._backoff_hist = None
        if metrics is not None:
            self._retries_counter = metrics.counter(
                "transport_retries_total",
                "Request attempts re-sent after a reply timed out.",
            )
            self._exhausted_counter = metrics.counter(
                "transport_retry_exhausted_total",
                "Requests/multicast legs that ran out of retry attempts.",
            )
            self._backoff_hist = metrics.histogram(
                "transport_retry_backoff_ms",
                "Backoff (virtual milliseconds) charged before each retry.",
            ).labels()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, node_id: int) -> queue.SimpleQueue:
        """Open the mailbox ``node_id`` will be served from: an unbounded
        FIFO whose ``put`` / ``get`` / ``get_nowait`` are C calls (no
        ``task_done`` bookkeeping, which nothing here uses)."""
        with self._lock:
            if node_id in self._mailboxes:
                raise ValueError(f"node {node_id} already registered")
            mailbox: queue.SimpleQueue = queue.SimpleQueue()
            self._mailboxes[node_id] = mailbox
            return mailbox

    def deregister(self, node_id: int) -> None:
        with self._lock:
            self._mailboxes.pop(node_id, None)

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @property
    def messages_sent(self) -> int:
        with self._lock:
            return self._messages_sent

    @property
    def replies_received(self) -> int:
        with self._lock:
            return self._replies_received

    @property
    def retries(self) -> int:
        with self._lock:
            return self._retries

    @property
    def exhausted(self) -> int:
        with self._lock:
            return self._exhausted

    def _reply_received(self, count: bool) -> None:
        with self._lock:
            if count:
                self._messages_sent += 1  # the reply on the wire
            self._replies_received += 1

    def _next_backoff(self, retry_index: int) -> float:
        """One draw from the policy: the transport owns the seeded RNG, so
        instrumenting one transport never perturbs another."""
        with self._lock:
            return self.retry.backoff_s(retry_index, self._retry_rng)

    def _retry_attempt(self, message, backoff_s: float):
        """Count one retry and build the re-sent attempt: same request,
        later virtual arrival.  The failed attempt's timeout and the
        backoff are virtual-clock costs (the client *waited* that long
        before re-sending)."""
        with self._lock:
            self._retries += 1
        if self._retries_counter is not None:
            self._retries_counter.inc()
        if self._backoff_hist is not None:
            self._backoff_hist.observe(backoff_s * 1000.0)
        return dataclasses.replace(
            message,
            reply_to=None,
            arrival_vtime=message.arrival_vtime + self.retry.timeout_s + backoff_s,
        )

    def _note_exhausted(self, count: int) -> None:
        with self._lock:
            self._exhausted += count
        if self._exhausted_counter is not None:
            self._exhausted_counter.inc(count)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dest: int, message, count: bool = True) -> bool:
        """One-way send (counted as one message unless ``count=False``,
        which is reserved for harness-level synchronization pings).

        Returns True when the message was handed to the destination;
        False when the fault layer dropped it.  A dropped message still
        counts as sent — it went on the wire and vanished there.
        """
        with self._lock:
            route = self._route(dest)
            if count:
                self._messages_sent += 1
        copies = 1
        if self.injector.enabled:
            verdict = self.injector.on_send(dest, message)
            if not verdict.deliver:
                return False
            if verdict.delay_s:
                message.arrival_vtime += verdict.delay_s
            copies = verdict.copies
        self._deliver(route, message, copies)
        return True

    def request(
        self,
        dest: int,
        message,
        timeout_s: Optional[float] = None,
        count: bool = True,
    ):
        """Send and block for the reply (request + reply = 2 messages).

        A lost reply is retried up to ``retry.max_attempts`` total sends
        with exponential backoff; :class:`TimeoutError` is raised only
        once the budget is exhausted.  Messages the fault layer is known
        to have dropped skip the real-clock wait — the timeout is charged
        to the retry's virtual arrival time instead.
        :class:`TransportClosed` from the wire propagates (a vanished
        destination is a different failure than a silent one).
        """
        timeout = timeout_s if timeout_s is not None else self._default_timeout
        attempt = message
        for index in range(self.retry.max_attempts):
            if self.dispatch_attempt(dest, attempt, count):
                reply = self.collect_reply(attempt, timeout)
                if reply is not None:
                    self._reply_received(count)
                    return reply
            if index + 1 < self.retry.max_attempts:
                backoff = self._next_backoff(index)
                attempt = self._retry_attempt(attempt, backoff)
        self._note_exhausted(1)
        raise TimeoutError(
            f"no reply from node {dest} for {message.kind.value} "
            f"(request {message.request_id}) after "
            f"{self.retry.max_attempts} attempt(s)"
        )

    def gather(
        self,
        dests: Iterable[int],
        build_message: Callable[[int], object],
        timeout_s: Optional[float] = None,
    ) -> GatherResult:
        """Multicast: send to every dest, then gather whatever replies.

        ``build_message(dest)`` constructs each request (so every request
        carries its own reply slot).  All destinations share one deadline
        per attempt wave — total real wait is bounded by the timeout, not
        ``len(dests) × timeout`` — and destinations that stay silent are
        retried with backoff (one draw per wave).  The result carries the
        collected replies *plus* the silent and the unreachable
        destinations (the wire raised :class:`TransportClosed`; reported,
        never raised), so callers can degrade (e.g. escalate to the
        global broadcast) instead of aborting and discarding replies
        already received.
        """
        timeout = timeout_s if timeout_s is not None else self._default_timeout
        replies: Dict[int, object] = {}
        unreachable: List[int] = []
        # dest -> (in-flight message, delivered?)
        pending: Dict[int, Tuple[object, bool]] = {}
        wave = ((dest, build_message(dest)) for dest in dests)
        for index in range(self.retry.max_attempts):
            for dest, message in wave:
                try:
                    delivered = self.dispatch_attempt(dest, message, True)
                except TransportClosed:
                    unreachable.append(dest)
                    continue
                pending[dest] = (message, delivered)
            # Replies land concurrently in per-attempt slots, so draining
            # them one by one against the wave's deadline bounds the wait.
            deadline = time.monotonic() + timeout
            for dest in list(pending):
                message, delivered = pending[dest]
                if not delivered:
                    continue  # known-dropped: no reply will ever come
                remaining = deadline - time.monotonic()
                reply = self.collect_reply(message, max(0.0, remaining))
                if reply is not None:
                    replies[dest] = reply
                    del pending[dest]
                    self._reply_received(True)
            if not pending or index + 1 >= self.retry.max_attempts:
                break
            backoff = self._next_backoff(index)
            wave = [
                (dest, self._retry_attempt(pending.pop(dest)[0], backoff))
                for dest in sorted(pending)
            ]
        if pending:
            self._note_exhausted(len(pending))
        return GatherResult(
            replies=replies,
            missing=tuple(sorted(pending)),
            unreachable=tuple(sorted(unreachable)),
        )

    # ------------------------------------------------------------------
    # The wire seam
    # ------------------------------------------------------------------
    def dispatch_attempt(self, dest: int, message, count: bool) -> bool:
        """Arm a fresh reply slot and put one attempt on the wire.

        True when the attempt was delivered, False when the fault layer
        is known to have dropped it (the loops then skip the real-clock
        wait); :class:`TransportClosed` when the destination is gone.
        """
        message.reply_to = queue.SimpleQueue()
        return self.send(dest, message, count=count)

    def collect_reply(self, message, timeout_s: float):
        """Block up to ``timeout_s`` for the attempt's reply; None on
        timeout (or when the wire knows the reply is lost)."""
        try:
            return message.reply_to.get(timeout=timeout_s)
        except queue.Empty:
            return None
