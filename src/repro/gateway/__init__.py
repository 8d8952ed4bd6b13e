"""Client-side metadata gateway: the front-end tier of the MDS fleet.

G-HBA (the paper) optimizes the *server-side* lookup walk; this package
models the tier real deployments put in front of the MDS fleet so hot
traffic never reaches it:

- :mod:`repro.gateway.cache` — lease-based client cache (path → home MDS +
  record) with TTL leases, LRU capacity, negative caching and correct
  invalidation on namespace mutations (including renamed subtrees).
- :mod:`repro.gateway.coalesce` — singleflight request coalescing and a
  per-home-MDS batcher for multi-key verification.
- :mod:`repro.gateway.admission` — token-bucket admission control with a
  bounded, deadline-bearing queue; overload sheds with an explicit
  REJECTED outcome, never silently.  :class:`FairAdmissionController`
  divides one global rate across tenants by weighted max-min sharing
  (DESIGN.md §16) so a noisy tenant cannot starve the rest.
- :mod:`repro.gateway.hotspot` — sliding-window space-saving heavy-hitter
  sketch that flags hot paths and shields them (extended leases, pinned
  against LRU eviction).
- :mod:`repro.gateway.client` — the :class:`MetadataClient` facade that
  composes admission → cache → coalescer → cluster and emits gateway
  metrics/spans through :mod:`repro.obs`.
- :mod:`repro.gateway.cohort` — a distributed cohort of N gateways
  fronting one fleet, exchanging versioned mutation-invalidation records
  over the fault-injectable prototype transport, with anti-entropy
  catch-up and a TTL clamp bounding staleness under partitions.
- :mod:`repro.gateway.staleness` — the staleness-window auditor shared
  by the cohort scenario and the correctness harness.
- :mod:`repro.gateway.scenario` — the scenario engine behind ``python -m
  repro.gateway bench``: one spec, one replay, one drain; the shield /
  cohort / write-back / tenant scenarios (:mod:`~repro.gateway.scenarios`,
  :mod:`~repro.gateway.tenant_bench`) run on it and report, emit and
  gate through :func:`repro.scenario.run_scenario`.
- :mod:`repro.gateway.writeback` — the write-back mutation buffer:
  per-home buckets of versioned final-state mutations, absorbed in
  place, drained as batched ``MUTATE_BATCH`` flushes with lease-version
  arbitration and explicit loss reporting (DESIGN.md §11).

The gateway follows the repo's zero-overhead-when-disabled discipline:
nothing here is imported by the cluster hot paths, and a cluster that is
queried directly behaves bit-identically to a build without this package.
"""

from repro.gateway.admission import (
    DEFAULT_TENANT,
    FairAdmissionController,
    TickResult,
    TokenBucket,
    fractional_fair_shares,
    weighted_max_min,
)
from repro.gateway.cache import CacheLookup, GatewayCache
from repro.gateway.client import (
    GatewayConfig,
    GatewayResponse,
    MetadataClient,
    Outcome,
)
from repro.gateway.coalesce import CoalescedBatch, HomeBatcher, coalesce
from repro.gateway.cohort import (
    CohortConfig,
    CohortMember,
    GatewayCohort,
    InvalidationRecord,
)
from repro.gateway.hotspot import HotspotDetector, SpaceSavingSketch
from repro.gateway.staleness import StaleRead, StalenessAuditor
from repro.gateway.writeback import (
    FlushReport,
    MutationBuffer,
    PendingMutation,
)

__all__ = [
    "DEFAULT_TENANT",
    "FairAdmissionController",
    "TickResult",
    "TokenBucket",
    "fractional_fair_shares",
    "weighted_max_min",
    "CacheLookup",
    "GatewayCache",
    "GatewayConfig",
    "GatewayResponse",
    "MetadataClient",
    "Outcome",
    "CoalescedBatch",
    "HomeBatcher",
    "coalesce",
    "CohortConfig",
    "CohortMember",
    "GatewayCohort",
    "InvalidationRecord",
    "HotspotDetector",
    "SpaceSavingSketch",
    "StaleRead",
    "StalenessAuditor",
    "FlushReport",
    "MutationBuffer",
    "PendingMutation",
]
