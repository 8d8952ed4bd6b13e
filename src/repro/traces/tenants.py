"""Multi-tenant workload model: Zipf tenants × Zipf files.

Real metadata traffic is not one anonymous stream — it is a mixture of
*tenants* (users, service accounts, batch pipelines) whose aggregate
demand is itself heavy-tailed: a handful of noisy tenants dominate while
a long tail trickles.  The admission-quota work (DESIGN.md §16) needs
that contention as a first-class generated workload, so this module adds
a tenant axis to the synthetic generator:

- **Which tenant issues the next op** is a Zipf draw over
  ``num_tenants`` with skew ``zipf_alpha`` — tenant 0 is the noisy
  neighbour, by construction.
- **Which file that tenant touches** stays a Zipf draw over the active
  file set (the profile's ``zipf_alpha``), but routed through a
  per-tenant affine permutation of the population, so each tenant has
  its *own* hot set: tenant contention happens at the admission tier
  (shared token rate), not by everyone hammering the same path (which
  the shared lease cache would simply absorb).

The tenant's identity rides the existing ``uid`` field (``uid == tenant
index``), and :attr:`TraceRecord.tenant` renders it as the string key
(``"u<uid>"``) the gateway's per-tenant admission/metrics use.  With no
:class:`TenantModel` attached, the generator draws identities exactly as
before — byte-identical traces for every existing seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.sim.rng import make_rng


@dataclass(frozen=True)
class TenantModel:
    """Shape of the tenant mixture layered onto a synthetic trace.

    Attributes
    ----------
    num_tenants:
        Tenant population; tenant indices are ``0 .. num_tenants - 1``
        with 0 the most popular (Zipf rank 1).
    zipf_alpha:
        Skew of tenant popularity (1.1 default: the classic "one noisy
        neighbour plus a long tail" shape).  Each tenant's files keep the
        profile's ``zipf_alpha``.
    """

    num_tenants: int
    zipf_alpha: float = 1.1

    def __post_init__(self) -> None:
        if self.num_tenants < 1:
            raise ValueError(
                f"num_tenants must be >= 1, got {self.num_tenants}"
            )
        if self.zipf_alpha <= 0:
            raise ValueError(
                f"zipf_alpha must be positive, got {self.zipf_alpha}"
            )

    def tenant_name(self, index: int) -> str:
        """The string key tenant ``index`` appears under at the gateway
        (matches :attr:`TraceRecord.tenant` for ``uid == index``)."""
        return f"u{index}"

    def permutation(
        self, tenant_index: int, population: int, seed: int
    ) -> Tuple[int, int]:
        """Deterministic affine permutation ``z → (a·z + b) mod n`` for
        one tenant's view of the file population.

        ``a`` is drawn coprime with ``population`` from a tenant-keyed
        RNG, so the map is a bijection: every tenant sees the whole
        population, ranked differently — distinct hot sets, identical
        marginal popularity.
        """
        if population < 1:
            raise ValueError(
                f"population must be >= 1, got {population}"
            )
        rng = make_rng(seed ^ 0x7E4A47 ^ (tenant_index * 0x9E3779B1))
        while True:
            a = rng.randrange(1, population + 1)
            if math.gcd(a, population) == 1:
                break
        b = rng.randrange(population)
        return a, b
