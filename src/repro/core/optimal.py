"""Optimal group size: the normalized-throughput model of Section 3.3.

The paper selects the maximum group size M by maximizing a benefit function
(Equation 2)::

    Gamma = 1 / (U_laten * U_space)

with ``U_space = (N - M) / M`` (Equation 3, Bloom filter replicas stored per
MDS) and ``U_laten`` the expected per-query latency through the four-level
hierarchy (Equation 4), evaluated "with the aid of simulation results,
including hit rates and latency of multi-level query operations"
(Section 4.1).

Following the paper, ``U_laten`` is a *model* fed with per-level hit rates
and delays.  Two mechanisms produce the interior optimum:

1. **Memory/locality** — each MDS holds ``theta = (N - M) / M`` replicas,
   so growing M shrinks per-MDS probe work and storage but also shrinks the
   fraction of queries resolved locally at L2 (``(theta + 1) / N``),
   pushing more queries onto group multicasts.
2. **Congestion** — the trace offers a fixed total operation rate that is
   spread across the N servers.  Multicast queries consume CPU on every
   group member (superlinearly in practice, due to response incast at the
   querying node), so per-server utilization ``rho`` rises with M and the
   queueing factor ``1 / (1 - rho)`` eventually dominates, collapsing
   Gamma.

The default constants are calibrated so the optima land where Figures 6-7
report them: M* = 5-6 at N = 30 (5 for RES, 6 for HP/INS), 9 at N = 100,
and a slow, roughly sqrt(N) growth from 3-4 at N = 10 to 14 at N = 200.
Use :data:`TRACE_MODELS` for the per-trace calibrations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Probability that a query reaching L2 *whose answer is locally covered*
#: resolves with a unique true hit (1 minus the false-routing regime of
#: Equation 1).
L2_ACCURACY = 0.95
#: The L4 escape rate's floor and cap (see :meth:`HitRates.l4_escape_rate`).
STALE_MISS_BASE = 0.005
STALE_MISS_CAP = 0.2

#: Delay constants (ms) of the uncongested latency.  Base per-query delay:
#: L1 probe plus the amortized forward hop.
DELAY_BASE_MS = 0.05
#: Delay per filter probed in the local segment array.
DELAY_L2_PER_FILTER_MS = 0.002
#: Forward round trip after a unique L2 hit.
DELAY_FORWARD_MS = 0.4
#: Multicast base delay and per-destination increment.
DELAY_MULTICAST_BASE_MS = 0.2
DELAY_MULTICAST_PER_DEST_MS = 0.01
#: Work constants (server-ms): receiving and dispatching one query, and
#: each filter probed at L2.
WORK_BASE_MS = 0.001
WORK_L2_PER_FILTER_MS = 0.002


@dataclass(frozen=True)
class HitRates:
    """Hit rates feeding Equation 4, measured from simulation or modeled.

    Attributes
    ----------
    p_lru:
        P_LRU — unique-hit rate of the L1 LRU array (workload locality).
    stale_miss_rate_per_server:
        The L4 escape rate: the paper observes the fraction of queries
        served by L4 grows with N because stale replicas accumulate
        (Section 4.5).  Modeled as ``min(STALE_MISS_CAP, STALE_MISS_BASE +
        per_server * N)``.
    """

    p_lru: float = 0.70
    stale_miss_rate_per_server: float = 0.001

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_lru < 1.0:
            raise ValueError(f"p_lru must be in [0, 1), got {self.p_lru}")
        if self.stale_miss_rate_per_server < 0:
            raise ValueError("stale_miss_rate_per_server must be non-negative")

    def l4_escape_rate(self, num_servers: int) -> float:
        """Probability a query reaching L3 still needs L4 (stale replicas)."""
        return min(
            STALE_MISS_CAP,
            STALE_MISS_BASE + self.stale_miss_rate_per_server * num_servers,
        )


@dataclass(frozen=True)
class OptimalityModel:
    """The per-trace constants of the Equation 2-4 evaluation.

    The delay constants (``DELAY_*``, ms) build the uncongested latency;
    the work constants (``WORK_*`` and ``work_*``, server-ms) build
    per-server utilization.  ``arrivals_total_per_s`` is the *system-wide*
    operation rate — the trace's intensity — which each of the N servers
    receives 1/N of.
    """

    hit_rates: HitRates = field(default_factory=HitRates)
    #: System-wide metadata operation rate (fixed by the trace).
    arrivals_total_per_s: float = 160_000.0
    #: CPU work of a group multicast per member (ms), applied to
    #: ``(M - 1) ** work_l3_exponent`` — superlinear for response incast.
    work_l3_per_member_ms: float = 0.03
    work_l3_exponent: float = 1.4
    #: CPU work of a global multicast per server (ms).
    work_l4_per_server_ms: float = 0.06

    def __post_init__(self) -> None:
        if self.arrivals_total_per_s <= 0:
            raise ValueError("arrivals_total_per_s must be positive")
        if self.work_l3_exponent < 1.0:
            raise ValueError("work_l3_exponent must be >= 1")
        for name in ("work_l3_per_member_ms", "work_l4_per_server_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    # ------------------------------------------------------------------
    # Equation-4 ingredients
    # ------------------------------------------------------------------
    def theta(self, num_servers: int, group_size: int) -> float:
        """Replicas per MDS, (N - M) / M (real-valued for smooth sweeps)."""
        return max(0.0, (num_servers - group_size) / group_size)

    def local_coverage(self, num_servers: int, group_size: int) -> float:
        """Fraction of all N filters visible at L2 on one MDS: (theta+1)/N."""
        return min(1.0, (self.theta(num_servers, group_size) + 1.0) / num_servers)

    def level_probabilities(
        self, num_servers: int, group_size: int
    ) -> Tuple[float, float, float, float]:
        """Return ``(P_L1, P_L2, P_L3, P_L4)`` — fraction served per level."""
        rates = self.hit_rates
        p1 = rates.p_lru
        p_l2_local = self.local_coverage(num_servers, group_size) * L2_ACCURACY
        p2 = (1.0 - p1) * p_l2_local
        escape = rates.l4_escape_rate(num_servers)
        reach_l3 = (1.0 - p1) * (1.0 - p_l2_local)
        p4 = reach_l3 * escape
        p3 = reach_l3 - p4
        return (p1, p2, p3, p4)

    def group_multicast_delay_ms(self, group_size: int) -> float:
        """D_group of Table 2."""
        return (
            DELAY_MULTICAST_BASE_MS
            + DELAY_MULTICAST_PER_DEST_MS * max(0, group_size - 1)
        )

    def global_multicast_delay_ms(self, num_servers: int) -> float:
        """D_net of Table 2."""
        return (
            DELAY_MULTICAST_BASE_MS
            + DELAY_MULTICAST_PER_DEST_MS * max(0, num_servers - 1)
        )

    def query_delay_ms(self, num_servers: int, group_size: int) -> float:
        """Uncongested expected delay of one query (Equation 4)."""
        theta = self.theta(num_servers, group_size)
        p1, p2, p3, p4 = self.level_probabilities(num_servers, group_size)
        reach_l2 = 1.0 - p1
        reach_l3 = p3 + p4
        return (
            DELAY_BASE_MS
            + reach_l2 * DELAY_L2_PER_FILTER_MS * (theta + 1.0)
            + p2 * DELAY_FORWARD_MS
            + reach_l3 * self.group_multicast_delay_ms(group_size)
            + p4 * self.global_multicast_delay_ms(num_servers)
        )

    def work_per_query_ms(self, num_servers: int, group_size: int) -> float:
        """Total server CPU-ms one query consumes system-wide."""
        theta = self.theta(num_servers, group_size)
        p1, p2, p3, p4 = self.level_probabilities(num_servers, group_size)
        reach_l2 = 1.0 - p1
        reach_l3 = p3 + p4
        return (
            WORK_BASE_MS
            + reach_l2 * WORK_L2_PER_FILTER_MS * (theta + 1.0)
            + reach_l3
            * self.work_l3_per_member_ms
            * max(0, group_size - 1) ** self.work_l3_exponent
            + p4 * self.work_l4_per_server_ms * max(0, num_servers - 1)
        )

    def utilization(self, num_servers: int, group_size: int) -> float:
        """Per-server utilization rho under the trace's offered load."""
        per_server_rate = self.arrivals_total_per_s / num_servers
        work_s = self.work_per_query_ms(num_servers, group_size) / 1000.0
        return per_server_rate * work_s

    def latency_ms(self, num_servers: int, group_size: int) -> float:
        """U_laten: congested expected latency (inf when saturated)."""
        rho = self.utilization(num_servers, group_size)
        if rho >= 1.0:
            return math.inf
        return self.query_delay_ms(num_servers, group_size) / (1.0 - rho)


def space_overhead(num_servers: int, group_size: int) -> float:
    """Equation 3: replicas stored per MDS, (N - M) / M."""
    if group_size < 1 or group_size >= num_servers:
        raise ValueError(
            f"group_size must be in [1, N-1], got M={group_size}, N={num_servers}"
        )
    return (num_servers - group_size) / group_size


def normalized_throughput(
    num_servers: int,
    group_size: int,
    model: Optional[OptimalityModel] = None,
) -> float:
    """Equation 2: Gamma = 1 / (U_laten * U_space)."""
    model = model or OptimalityModel()
    latency = model.latency_ms(num_servers, group_size)
    if math.isinf(latency):
        return 0.0
    space = space_overhead(num_servers, group_size)
    if space <= 0.0:
        return 0.0
    return 1.0 / (latency * space)


def throughput_curve(
    num_servers: int,
    model: Optional[OptimalityModel] = None,
    max_group_size: Optional[int] = None,
) -> List[Tuple[int, float]]:
    """Gamma for every M in 1..min(N-1, max_group_size) — Figure 6's series."""
    model = model or OptimalityModel()
    limit = num_servers - 1
    if max_group_size is not None:
        limit = min(limit, max_group_size)
    return [
        (m, normalized_throughput(num_servers, m, model))
        for m in range(1, limit + 1)
    ]


def optimal_group_size(
    num_servers: int,
    model: Optional[OptimalityModel] = None,
    max_group_size: Optional[int] = None,
) -> int:
    """The M maximizing Gamma — Figure 7's quantity."""
    curve = throughput_curve(num_servers, model, max_group_size)
    if not curve:
        raise ValueError(f"no feasible group size for N={num_servers}")
    best_m, _ = max(curve, key=lambda pair: pair[1])
    return best_m


#: Per-trace calibrations.  RES is by far the most intense workload
#: (Table 3: ~9 billion scaled operations), so its higher offered load
#: saturates multicast work earlier and pulls the optimum down to M*=5 at
#: N=30 (Figure 6); HP and INS land at 6.  All three give M*=9 at N=100.
TRACE_MODELS: Dict[str, OptimalityModel] = {
    "HP": OptimalityModel(
        arrivals_total_per_s=160_000.0,
        hit_rates=HitRates(p_lru=0.75, stale_miss_rate_per_server=0.002),
    ),
    "INS": OptimalityModel(
        arrivals_total_per_s=140_000.0,
        work_l3_per_member_ms=0.03,
        work_l4_per_server_ms=0.03,
        hit_rates=HitRates(p_lru=0.65, stale_miss_rate_per_server=0.002),
    ),
    "RES": OptimalityModel(
        arrivals_total_per_s=200_000.0,
        work_l3_per_member_ms=0.04,
        work_l3_exponent=1.3,
        work_l4_per_server_ms=0.002,
        hit_rates=HitRates(p_lru=0.65, stale_miss_rate_per_server=0.0),
    ),
}
