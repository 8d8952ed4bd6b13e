"""In-process transport: per-node mailboxes with wire-level accounting.

Each registered node owns a :class:`queue.SimpleQueue` mailbox.  ``send``
enqueues a message and bumps the message counter; ``request`` additionally
blocks on a private reply slot (another ``SimpleQueue``, one per attempt:
a C-level FIFO that costs far less to build and hand over than a
``queue.Queue``).  Counting happens at the transport, so the message
totals of Figures 14-15 are *observed*, not computed.

The transport is also the fault boundary (``repro.faults``): every send
passes through a :class:`~repro.faults.injector.FaultInjector` (the no-op
:data:`~repro.faults.injector.NULL_INJECTOR` by default), which may drop,
delay or duplicate the message.  Lost replies are recovered by bounded
retry with exponential backoff + jitter (:class:`~repro.faults.retry.RetryPolicy`).
The mailboxes, the counting, the injector verdict and the retry loop are
the transport core in :mod:`repro.net.reliability` (shared with the TCP
transport, so both account and recover identically); timeout and backoff
penalties are charged to the retried message's *virtual* arrival time, so
recovery costs show up in the latency figures without slowing the real
clock.  What is this transport's own is delivery: a ``put`` into the
destination's mailbox.
"""

from __future__ import annotations

import queue
from typing import List

from repro.net.reliability import ReliableTransport, TransportClosed
from repro.prototype.messages import Message

__all__ = ["InProcessTransport", "TransportClosed"]


class InProcessTransport(ReliableTransport):
    """The transport core, delivering straight into the mailboxes it keeps
    (parameters: :class:`~repro.net.reliability.ReliableTransport`)."""

    def node_ids(self) -> List[int]:
        with self._lock:
            return sorted(self._mailboxes)

    def __contains__(self, node_id: int) -> bool:
        with self._lock:
            return node_id in self._mailboxes

    def _route(self, dest: int) -> "queue.SimpleQueue[Message]":
        mailbox = self._mailboxes.get(dest)
        if mailbox is None:
            raise TransportClosed(f"node {dest} is not registered")
        return mailbox

    def _deliver(
        self, route: "queue.SimpleQueue[Message]", message: Message, copies: int
    ) -> None:
        for _ in range(copies):
            route.put(message)
