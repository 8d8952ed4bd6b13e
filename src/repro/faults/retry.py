"""Bounded retry with exponential backoff and deterministic jitter.

The policy is shared by :meth:`InProcessTransport.request` and
:meth:`InProcessTransport.gather <repro.prototype.transport.InProcessTransport.gather>`:
a timed-out attempt is retried up to ``max_attempts`` total sends, each
retry waiting ``BASE_DELAY_S * MULTIPLIER**k`` (capped at ``MAX_DELAY_S``)
plus a jitter drawn from a seeded RNG — full determinism, no wall-clock
randomness.  Backoff and ``TIMEOUT_S`` penalties are charged to the
*virtual* clock (the in-process transport delivers instantly in real time;
a real deployment would sleep them), so retrying never slows the test
suite and the latency accounting still shows the cost of recovery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Exponential backoff: retry ``k`` (0-based) waits
#: ``min(BASE_DELAY_S * MULTIPLIER**k, MAX_DELAY_S)`` before jitter.
BASE_DELAY_S = 0.010
MULTIPLIER = 2.0
MAX_DELAY_S = 0.250
#: Fraction of the backoff added as seeded random jitter in
#: ``[0, JITTER * backoff)`` — decorrelates retry storms.
JITTER = 0.5
#: Virtual seconds charged for each timed-out attempt (the time a client
#: waits before concluding the reply is lost); no wall-clock wait reads it.
TIMEOUT_S = 0.050


@dataclass(frozen=True)
class RetryPolicy:
    """How a transport retries a request that got no reply.

    Attributes
    ----------
    max_attempts:
        Total sends per request, first attempt included; 1 disables
        retries.
    """

    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def backoff_s(self, retry_index: int, rng: random.Random) -> float:
        """Backoff before retry ``retry_index`` (0-based), jitter included."""
        if retry_index < 0:
            raise ValueError(f"retry_index must be non-negative, got {retry_index}")
        base = min(BASE_DELAY_S * MULTIPLIER ** retry_index, MAX_DELAY_S)
        return base + rng.random() * JITTER * base


#: Default policy used by the transport: three attempts, 10 ms base backoff.
DEFAULT_RETRY = RetryPolicy()

#: Retries disabled — the pre-fault-layer transport behavior.
NO_RETRY = RetryPolicy(max_attempts=1)
