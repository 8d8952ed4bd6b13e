"""The one surface the gateway tier needs from an MDS fleet.

The paper's client asks three things of the fleet: walk L1-L4 from any
MDS, read the answer at the home MDS, and send mutations to that home.
:class:`MetadataBackend` declares exactly that, name for name, as the
gateway calls it.  It is a declaration, not a layer:
:class:`~repro.core.cluster.GHBACluster` satisfies it structurally and is
handed to :class:`~repro.gateway.client.MetadataClient` as is; a second
backend (the threaded prototype, the TCP fleet) is these fourteen names.
``tests/unit/test_gateway_backend_seam.py`` holds the seam shut.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol, Sequence

from repro.core.cluster import (
    BatchMutateResult,
    BatchVerifyResult,
    MutationEvent,
    PathMutation,
)
from repro.core.query import QueryResult
from repro.metadata.attributes import FileMetadata
from repro.obs.registry import MetricsRegistry


class MetadataBackend(Protocol):
    """What :mod:`repro.gateway` calls on the fleet — and nothing else."""

    #: Default registry of a gateway built without its own, so one
    #: exporter sees fleet and gateway series side by side.
    metrics: MetricsRegistry

    def query(self, path: str) -> QueryResult:
        """Full L1-L4 walk from an MDS of the fleet's choosing."""

    def record_at(self, home_id: int, path: str) -> Optional[FileMetadata]:
        """The record ``home_id`` holds for ``path`` (None when it holds
        none) — the read that follows a walk naming that home."""

    def verify_batch(
        self, server_id: int, paths: Sequence[str]
    ) -> BatchVerifyResult:
        """Re-validate expired leases predicted onto one MDS, in one RPC."""

    def path_version(self, path: str) -> int:
        """Backend version of ``path``: the base write-back arbitrates on."""

    def home_of(self, path: str) -> Optional[int]:
        """Ground-truth home of ``path`` — for audits, never for serving."""

    def insert_file(
        self, meta: FileMetadata, home_id: Optional[int] = None
    ) -> int:
        """Write-through create; returns the home."""

    def delete_file(self, path: str) -> Optional[int]:
        """Write-through delete; returns the home (None when absent)."""

    def rename_subtree(self, old_prefix: str, new_prefix: str) -> int:
        """Re-key a subtree in place; returns the records renamed."""

    def apply_mutation_batch(
        self,
        server_id: int,
        mutations: Sequence[PathMutation],
        origin: int = 0,
        acked_version: int = 0,
    ) -> BatchMutateResult:
        """One write-back flush, arbitrated and applied at most once."""

    def add_mutation_listener(
        self, listener: Callable[[MutationEvent], None]
    ) -> None:
        """Subscribe to every namespace/membership mutation (coherence)."""

    def server_ids(self) -> List[int]:
        """Sorted live MDS ids (placement of hint-less buffered creates)."""

    def file_count(self) -> int:
        """Records held fleet-wide (the next inode number)."""

    def round_trip_ms(self) -> float:
        """Modelled latency of one synchronous mutation round trip."""
