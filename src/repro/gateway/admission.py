"""Token-bucket admission control with a bounded, deadline-bearing queue.

The gateway protects the MDS fleet from overload: requests beyond the
provisioned rate are *queued* (up to ``queue_capacity``, each with a
deadline) and, once the queue is full or a deadline passes, *shed* with an
explicit REJECTED outcome — never silently dropped.  That explicitness is
what lets the soak tests and benchmarks reconcile goodput against offered
load exactly: ``admitted + shed == submitted`` at every instant.

:class:`FairAdmissionController` divides one global rate across
per-tenant demand by **weighted max-min sharing** (DESIGN.md §16).  Each
virtual tick the refilled tokens are divided across demanding tenants by
progressive filling: no tenant with unmet demand receives less than its
weighted share of the contended tokens (the *floor*), and tokens a
tenant does not need redistribute to those still hungry (work
conservation).  Queues and shed causes are per tenant, so one tenant's
backlog can never push another's requests out of the queue.
``per_tenant=False`` collapses it to one tenant-blind FIFO bucket — the
"global" baseline the tenant-isolation harness must show *failing* under
a noisy neighbour.  (The original single-bucket controller it replaced
lives on as ``tests/_reference_admission.py``, the frozen reference the
single-tenant path is locked bit-identical to.)

Everything runs on the caller-supplied virtual clock (seconds); nothing
reads wall time, so a seeded replay is deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Deque,
    Dict,
    Generic,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

T = TypeVar("T")


class TokenBucket:
    """A classic token bucket on virtual time.

    Parameters
    ----------
    rate_per_s:
        Steady-state refill rate (tokens per virtual second).
    burst:
        Bucket capacity — the largest instantaneous burst admitted after
        an idle period.  The bucket starts full.  Below ``2**53``, where
        every whole-token subtraction is exact (:meth:`take_many`).
    """

    def __init__(self, rate_per_s: float, burst: float) -> None:
        if rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be positive, got {rate_per_s}")
        if not 1 <= burst < 2.0 ** 53:
            raise ValueError(f"burst must be >= 1 and < 2**53, got {burst}")
        self.rate_per_s = rate_per_s
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last_refill = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last_refill:
            self._tokens = min(
                self.burst,
                self._tokens + (now - self._last_refill) * self.rate_per_s,
            )
            self._last_refill = now

    def tokens(self, now: float) -> float:
        self._refill(now)
        return self._tokens

    def take(self, now: float) -> bool:
        """Consume one token if available; False means over limit."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def take_many(self, count: int) -> None:
        """Consume ``count`` tokens the caller has just seen are there
        (``tokens(now) >= count``).  The same float ``count`` calls of
        :meth:`take` leave: with ``count <= tokens < 2**53`` every whole
        number below ``tokens`` is a multiple of its unit in the last
        place, so each unit subtraction, and this one, is exact."""
        self._tokens -= count

    def __repr__(self) -> str:
        return (
            f"TokenBucket(rate={self.rate_per_s}/s, burst={self.burst}, "
            f"tokens={self._tokens:.2f}@{self._last_refill:.3f}s)"
        )


@dataclass
class AdmissionStats:
    """Exact reconciliation tallies: submitted == admitted + shed + queued-now."""

    submitted: int = 0
    admitted: int = 0
    queued: int = 0
    shed_full: int = 0
    shed_deadline: int = 0

    @property
    def shed(self) -> int:
        return self.shed_full + self.shed_deadline


# ----------------------------------------------------------------------
# Per-tenant weighted max-min admission
# ----------------------------------------------------------------------

#: Tenant key used when the caller does not identify one.
DEFAULT_TENANT = "-"

SHED_QUEUE_FULL = "queue_full"
SHED_DEADLINE = "deadline"


def fractional_fair_shares(
    demands: Mapping[str, int],
    weights: Mapping[str, float],
    tokens: float,
) -> Dict[str, float]:
    """Exact (fractional) weighted max-min shares by water-filling.

    The real-valued ideal the integral allocator approximates: tenants
    whose demand is below their proportional share are satisfied exactly
    and drop out; their surplus redistributes to the rest by weight.
    ``sum(shares) == min(tokens, total demand)``.
    """
    shares: Dict[str, float] = {tenant: 0.0 for tenant in demands}
    active = sorted(t for t, d in demands.items() if d > 0)
    remaining = float(tokens)
    total_demand = sum(demands[t] for t in active)
    if remaining >= total_demand:
        for tenant in active:
            shares[tenant] = float(demands[tenant])
        return shares
    while active and remaining > 1e-12:
        total_weight = sum(weights[t] for t in active)
        satisfied = [
            t
            for t in active
            if demands[t] <= remaining * weights[t] / total_weight
        ]
        if not satisfied:
            for tenant in active:
                shares[tenant] = remaining * weights[tenant] / total_weight
            break
        for tenant in satisfied:
            shares[tenant] = float(demands[tenant])
            remaining -= demands[tenant]
        active = [t for t in active if t not in satisfied]
    return shares


def weighted_max_min(
    demands: Mapping[str, int],
    weights: Mapping[str, float],
    tokens: int,
    priority: Optional[Mapping[str, float]] = None,
) -> Dict[str, int]:
    """Integral weighted max-min allocation by progressive filling.

    Divides ``tokens`` across the demanding tenants: each round the
    remaining tokens are split proportionally to the weights of tenants
    with unmet demand; satisfied tenants drop out and their unused share
    redistributes.  When fewer tokens remain than demanding tenants, the
    last tokens go one-by-one in descending ``priority`` order (the
    controller passes its per-tenant deficit credits here, so a tenant
    short-changed by integer rounding in past ticks wins the next whole
    token — without it, a sub-token-per-tick rate would starve whichever
    tenant loses the deterministic tie-break forever).  Ties fall back to
    largest fair share, then tenant name.  The result is deterministic
    and conserves work: ``sum(alloc) == min(tokens, sum(demands))``.
    """
    alloc: Dict[str, int] = {tenant: 0 for tenant in demands}
    remaining = int(tokens)
    active = sorted(t for t, d in demands.items() if d > 0)
    total_demand = sum(demands[t] for t in active)
    if remaining >= total_demand:
        for tenant in active:
            alloc[tenant] = demands[tenant]
        return alloc
    prio = priority or {}
    while remaining > 0 and active:
        total_weight = sum(weights[t] for t in active)
        grants = {
            t: min(
                demands[t] - alloc[t],
                int(remaining * weights[t] / total_weight),
            )
            for t in active
        }
        granted = sum(grants.values())
        if granted == 0:
            # Sub-tenant granularity: hand out the last tokens whole,
            # most-underserved (highest credit) first.
            order = sorted(
                active,
                key=lambda t: (
                    -prio.get(t, 0.0),
                    -remaining * weights[t] / total_weight,
                    t,
                ),
            )
            for tenant in order:
                if remaining == 0:
                    break
                alloc[tenant] += 1
                remaining -= 1
            break
        for tenant, grant in grants.items():
            alloc[tenant] += grant
        remaining -= granted
        active = [t for t in active if alloc[t] < demands[t]]
    return alloc


@dataclass
class TickResult(Generic[T]):
    """One admission tick's dispositions, tenant-tagged.

    ``admitted`` preserves service order (drained queue entries first,
    oldest enqueue first, then fresh arrivals in submission order);
    ``shed`` carries the explicit cause per item.
    """

    admitted: List[Tuple[str, T]] = field(default_factory=list)
    shed: List[Tuple[str, T, str]] = field(default_factory=list)


class _TenantState(Generic[T]):
    """Per-tenant queue + tallies inside the fair controller."""

    __slots__ = ("weight", "queue", "stats", "credit")

    def __init__(self, weight: float) -> None:
        self.weight = weight
        # (deadline, enqueue_seq, item); seq gives a global FIFO order.
        self.queue: Deque[Tuple[float, int, T]] = deque()
        self.stats = AdmissionStats()
        # Deficit credit: fractional fair share owed but not yet granted
        # because tokens are whole.  Reset whenever the tenant goes idle.
        self.credit = 0.0


class FairAdmissionController(Generic[T]):
    """Weighted max-min sharing of one global token rate across tenants.

    Parameters
    ----------
    rate_per_s / burst:
        The *global* provisioned rate — the same budget the legacy
        controller spends, now divided fairly.
    queue_capacity:
        Per-tenant queue bound.  A tenant's backlog occupies only its own
        queue; it cannot crowd another tenant's requests out.
    queue_deadline_s:
        Queue-entry lifetime before a deadline shed.
    per_tenant:
        ``False`` degrades to the legacy single-bucket behaviour (one
        global FIFO, tenant-blind token spending) while still keeping
        per-tenant tallies — the baseline mode the isolation harness
        shows failing.
    """

    def __init__(
        self,
        rate_per_s: float,
        burst: float,
        queue_capacity: int = 64,
        queue_deadline_s: float = 1.0,
        per_tenant: bool = True,
    ) -> None:
        if queue_capacity < 0:
            raise ValueError(
                f"queue_capacity must be >= 0, got {queue_capacity}"
            )
        if queue_deadline_s <= 0:
            raise ValueError(
                f"queue_deadline_s must be positive, got {queue_deadline_s}"
            )
        self.bucket = TokenBucket(rate_per_s, burst)
        self.queue_capacity = queue_capacity
        self.queue_deadline_s = queue_deadline_s
        self.per_tenant = per_tenant
        self.stats = AdmissionStats()  # aggregate across tenants
        self._tenants: Dict[str, _TenantState[T]] = {}
        self._seq = 0  # global enqueue order across tenant queues

    # ------------------------------------------------------------------
    # Tenant registry
    # ------------------------------------------------------------------
    def set_weight(self, tenant: str, weight: float) -> None:
        """Set a tenant's weight; zero or negative weights are rejected
        outright (a zero-weight tenant would be starved by construction,
        which the floor guarantee forbids).  A tenant never weighted,
        including one first seen mid-run, weighs 1.0: a first-class
        citizen, never a rejection."""
        if weight <= 0:
            raise ValueError(
                f"tenant {tenant!r} weight must be positive, got {weight}"
            )
        self._state(tenant).weight = weight

    def tenant_stats(self, tenant: str) -> AdmissionStats:
        """This tenant's tallies (zeros for a never-seen tenant)."""
        state = self._tenants.get(tenant)
        return state.stats if state is not None else AdmissionStats()

    def tenants(self) -> List[str]:
        return sorted(self._tenants)

    def _state(self, tenant: str) -> _TenantState[T]:
        state = self._tenants.get(tenant)
        if state is None:
            state = _TenantState(1.0)
            self._tenants[tenant] = state
        return state

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def _expire(self, now: float, result: TickResult[T]) -> None:
        for tenant in sorted(self._tenants):
            state = self._tenants[tenant]
            while state.queue and state.queue[0][0] <= now:
                _, _, item = state.queue.popleft()
                state.stats.shed_deadline += 1
                self.stats.shed_deadline += 1
                result.shed.append((tenant, item, SHED_DEADLINE))

    def submit_tick(
        self, items: Sequence[Tuple[str, T]], now: float
    ) -> TickResult[T]:
        """Admit one virtual tick of tenant-tagged arrivals.

        Queued entries (older by definition) are served before fresh
        arrivals of the same tenant; the tick's token supply is divided
        across demanding tenants by :func:`weighted_max_min` (or spent
        FIFO in global mode).  Overflow queues per tenant up to
        ``queue_capacity``; the rest sheds with cause ``queue_full``.

        An uncontended tick — no queued entry anywhere and at least one
        token per item — admits everything in submission order in one
        pass: nothing can expire, and the allocators would grant every
        demand in full (DESIGN.md §16).
        """
        if self.bucket.tokens(now) >= len(items) and not self.queue_depth:
            demands: Dict[str, int] = {}
            for tenant, _ in items:
                demands[tenant] = demands.get(tenant, 0) + 1
            tenants = self._tenants
            for tenant, count in demands.items():
                stats = (tenants.get(tenant) or self._state(tenant)).stats
                stats.submitted += count
                stats.admitted += count
            self.stats.submitted += len(items)
            self.stats.admitted += len(items)
            if self.per_tenant:
                # The fair path's credit update with ideal == alloc ==
                # demand, kept as written: float(d) - d need not cancel.
                for tenant, state in tenants.items():
                    count = demands.get(tenant)
                    state.credit = 0.0 if count is None else max(
                        -8.0, min(8.0, state.credit + float(count) - count)
                    )
            self.bucket.take_many(len(items))
            return TickResult(list(items))
        result: TickResult[T] = TickResult()
        self._expire(now, result)
        for tenant, _ in items:
            state = self._state(tenant)
            state.stats.submitted += 1
            self.stats.submitted += 1
        available = int(self.bucket.tokens(now))
        if self.per_tenant:
            admitted, leftover = self._allocate_fair(items, available)
        else:
            admitted, leftover = self._allocate_fifo(items, available)
        for tenant, item in admitted:
            # Spend one token per admitted item (unit takes, exactly like
            # the legacy controller, so single-tenant replays stay
            # bit-identical with the pre-quota golden counters).
            self.bucket.take(now)
            state = self._tenants[tenant]
            state.stats.admitted += 1
            self.stats.admitted += 1
        result.admitted.extend(admitted)
        # Whatever was not admitted this tick queues (or sheds).
        for tenant, item in leftover:
            state = self._tenants[tenant]
            if len(state.queue) < self.queue_capacity:
                state.stats.queued += 1
                self.stats.queued += 1
                state.queue.append(
                    (now + self.queue_deadline_s, self._seq, item)
                )
                self._seq += 1
            else:
                state.stats.shed_full += 1
                self.stats.shed_full += 1
                result.shed.append((tenant, item, SHED_QUEUE_FULL))
        return result

    def pump(self, now: float) -> TickResult[T]:
        """Advance the clock: expire deadlines, drain what refills allow."""
        return self.submit_tick((), now)

    # ------------------------------------------------------------------
    # Allocation strategies
    # ------------------------------------------------------------------
    def _queued_demand(self) -> List[Tuple[int, str]]:
        """Every queued entry as ``(enqueue_seq, tenant)``, oldest first."""
        entries = [
            (seq, tenant)
            for tenant, state in self._tenants.items()
            for _, seq, _ in state.queue
        ]
        entries.sort()
        return entries

    def _allocate_fair(
        self, items: Sequence[Tuple[str, T]], available: int
    ) -> Tuple[List[Tuple[str, T]], List[Tuple[str, T]]]:
        """Weighted max-min split of ``available`` tokens; returns
        ``(admitted, leftover_fresh)`` with fresh leftovers in submission
        order."""
        demands: Dict[str, int] = {}
        for tenant, state in self._tenants.items():
            if state.queue:
                demands[tenant] = len(state.queue)
        for tenant, _ in items:
            demands[tenant] = demands.get(tenant, 0) + 1
        weights = {t: self._tenants[t].weight for t in demands}
        credits = {t: self._tenants[t].credit for t in demands}
        alloc = weighted_max_min(demands, weights, available, credits)
        # Deficit accounting: what integer rounding withheld this tick is
        # owed next tick; what rounding over-granted is charged.  Credits
        # of idle tenants reset — going quiet forfeits banked share.
        ideal = fractional_fair_shares(demands, weights, available)
        for tenant, state in self._tenants.items():
            if tenant in demands:
                state.credit = max(
                    -8.0, min(8.0, state.credit + ideal[tenant] - alloc[tenant])
                )
            else:
                state.credit = 0.0
        budget = dict(alloc)
        admitted: List[Tuple[str, T]] = []
        leftover: List[Tuple[str, T]] = []
        # Drain queues first, globally oldest-enqueue first, respecting
        # each tenant's budget.
        for seq, tenant in self._queued_demand():
            if budget.get(tenant, 0) <= 0:
                continue
            state = self._tenants[tenant]
            if state.queue and state.queue[0][1] == seq:
                _, _, item = state.queue.popleft()
                budget[tenant] -= 1
                admitted.append((tenant, item))
        # Then fresh arrivals, in submission order.
        for tenant, item in items:
            if budget.get(tenant, 0) > 0:
                budget[tenant] -= 1
                admitted.append((tenant, item))
            else:
                leftover.append((tenant, item))
        return admitted, leftover

    def _allocate_fifo(
        self, items: Sequence[Tuple[str, T]], available: int
    ) -> Tuple[List[Tuple[str, T]], List[Tuple[str, T]]]:
        """Legacy global-bucket mode: one FIFO, tenant-blind."""
        admitted: List[Tuple[str, T]] = []
        leftover: List[Tuple[str, T]] = []
        budget = available
        for seq, tenant in self._queued_demand():
            if budget <= 0:
                break
            state = self._tenants[tenant]
            if state.queue and state.queue[0][1] == seq:
                _, _, item = state.queue.popleft()
                budget -= 1
                admitted.append((tenant, item))
        for tenant, item in items:
            if budget > 0:
                budget -= 1
                admitted.append((tenant, item))
            else:
                leftover.append((tenant, item))
        return admitted, leftover

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return sum(len(s.queue) for s in self._tenants.values())

    def queued_items(self) -> List[T]:
        """Every queued item, oldest enqueue first (across tenants)."""
        entries = [
            (seq, item)
            for state in self._tenants.values()
            for _, seq, item in state.queue
        ]
        entries.sort(key=lambda pair: pair[0])
        return [item for _, item in entries]

    def __repr__(self) -> str:
        return (
            f"FairAdmissionController(tenants={len(self._tenants)}, "
            f"queue={self.queue_depth}, per_tenant={self.per_tenant}, "
            f"stats={self.stats})"
        )
