"""One metadata server (MDS).

Each MDS owns:

- a :class:`~repro.metadata.store.MetadataStore` of the files it is *home*
  for,
- a local :class:`~repro.bloom.bloom_filter.BloomFilter` summarizing those
  files (the filter that gets replicated to other groups),
- an L1 :class:`~repro.bloom.arrays.LRUBloomFilterArray` of recently
  resolved lookups,
- an L2 :class:`~repro.bloom.arrays.BloomFilterArray` holding the ``theta``
  replicas assigned to it by its group,
- a memory budget and the one resident fraction it implies: once the
  footprint of all of the above outgrows the budget, every structure keeps
  ``budget / footprint`` of itself in memory and the rest pays disk
  latency (the mechanism of Figures 8-10 and 14).

The server knows nothing about groups or routing — that is the cluster's
job — but exposes the probe and verification primitives each query level
needs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

from repro.bloom.algebra import bit_difference
from repro.bloom.arrays import ArrayLookup, BloomFilterArray, LRUBloomFilterArray
from repro.bloom.bloom_filter import BloomFilter
from repro.core.config import GHBAConfig
from repro.metadata.attributes import FileMetadata
from repro.metadata.store import MetadataStore

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.cellindex import CellIndex
    from repro.core.cluster import PathMutation
    from repro.obs.registry import MetricsRegistry


def check_mutations(mutations: "Sequence[PathMutation]") -> None:
    """Refuse a malformed write-back batch before any of it applies.

    Each entry has a mutation's ``op``, ``path`` and ``record``.  Raises
    :class:`ValueError` on an op other than ``create`` / ``delete``, a
    create without a record, or a create whose record names another path.
    :meth:`MetadataServer.apply_mutations` runs it over the whole batch
    first, so a batch applies whole or changes nothing.
    """
    for mutation in mutations:
        op, path, record = mutation.op, mutation.path, mutation.record
        if op not in ("create", "delete"):
            raise ValueError(f"unknown mutation op {op!r}")
        if op == "create" and record is None:
            raise ValueError(f"create of {path!r} carries no record")
        if op == "create" and record.path != path:
            raise ValueError(
                f"create of {path!r} carries the record of {record.path!r}"
            )


class MetadataServer:
    """One MDS identified by an integer ID.

    ``metrics`` (optional) is the cluster's shared
    :class:`~repro.obs.registry.MetricsRegistry`; when provided, the server
    counts its own L1/L2 probe load into
    ``ghba_server_probes_total{server,level}`` — the raw signal behind the
    hotspot view's per-server attribution.  Without a registry the probe
    path stays completely uninstrumented.

    A cluster's server is also in the cluster's
    :class:`~repro.core.cellindex.CellIndex` (``_index``), which L2 probes
    instead of the segment and which every method that changes a filter
    or a hosted replica keeps current.  A server outside a cluster (a
    prototype node, a ``repro.net serve`` process) has none and tests its
    own packed ints.
    """

    def __init__(
        self,
        server_id: int,
        config: GHBAConfig,
        metrics: "Optional[MetricsRegistry]" = None,
    ) -> None:
        if server_id < 0:
            raise ValueError(f"server_id must be non-negative, got {server_id}")
        self.server_id = server_id
        self.config = config
        if metrics is not None:
            probes = metrics.counter(
                "ghba_server_probes_total",
                "Bloom probes answered, by server and level.",
                labels=("server", "level"),
            )
            # Children bound once: a probe adds 1 to its `.value`.
            self._l1_probe_counter = probes.labels(server_id, "l1")
            self._l2_probe_counter = probes.labels(server_id, "l2")
        else:
            self._l1_probe_counter = None
            self._l2_probe_counter = None
        self.store = MetadataStore()
        self.local_filter = BloomFilter(
            config.filter_num_bits, config.filter_num_hashes, config.seed
        )
        self.lru = LRUBloomFilterArray(
            capacity=config.lru_capacity,
            filter_bits=config.lru_filter_bits,
            num_hashes=config.lru_num_hashes,
            seed=config.seed,
            policy=config.lru_policy,
        )
        self.segment = BloomFilterArray()
        self._memory_budget_bytes = config.memory_budget_bytes
        self._metadata_bytes = 0
        #: Snapshot of the local filter as last replicated to remote groups;
        #: the XOR-threshold rule compares against this (Section 3.4).
        self.published_filter = self.local_filter.copy()
        #: Write-back dedup state (at-most-once MUTATE_BATCH application).
        #: Gateway versions are a *gateway-global* sequence, so each home
        #: sees a gappy subsequence — a high-water mark cannot tell a
        #: retry from an out-of-order first delivery.  Dedup is therefore
        #: exact: ``writeback_floor`` is the per-origin cumulative-ack
        #: floor (every version at or below it is settled client-side and
        #: never retried), and ``writeback_outcomes`` caches the outcome
        #: of every version applied *above* the floor.  A version is a
        #: duplicate iff it is at or below the floor or present in the
        #: cache.  Both ride :func:`~repro.core.checkpoint.snapshot_server`
        #: so a crash between apply and ack cannot double-apply a retry;
        #: outcomes are kept as the JSON-safe dicts the checkpoint writes.
        #: Only :meth:`apply_mutations` (and the checkpoint) touch them.
        self.writeback_floor: Dict[int, int] = {}
        self.writeback_outcomes: Dict[int, Dict[int, Dict[str, Any]]] = {}
        #: Mutations this server actually applied (not deduped, not noop) —
        #: the observable the at-most-once tests assert on.
        self.writeback_applied = 0
        # Latency-model memos for the query hot path, each valid for the
        # network it was derived with.  A change of the resident fraction
        # clears both, and a full refresh (the only place theta moves)
        # clears the probe cost's, so a memo re-derives exactly when one
        # of its inputs may have moved.
        self.resident_fraction = 1.0
        self._probe_cost_net: object = None
        self._probe_cost_ms = 0.0
        self._fetch_penalty_net: object = None
        self._fetch_penalty_ms = 0.0
        self._empty_segment_lookup: Optional[ArrayLookup] = None
        #: Set by the cluster's index on join, cleared on leave.
        self._index: "Optional[CellIndex]" = None
        self._refresh_memory_accounting()

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    @property
    def memory_budget_bytes(self) -> Optional[int]:
        """Main memory for Bloom structures + metadata; None = unbounded."""
        return self._memory_budget_bytes

    @memory_budget_bytes.setter
    def memory_budget_bytes(self, budget: Optional[int]) -> None:
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be non-negative, got {budget}")
        self._memory_budget_bytes = budget
        self._derive_resident_fraction()

    def _refresh_memory_accounting(self) -> None:
        """Re-read every footprint: what a replica or filter change, a
        bulk load and a restore call."""
        self._filter_bytes = self.local_filter.size_bytes() + self.segment.size_bytes()
        # Theta moves only here (a replica hosted, dropped or replaced).
        self._probe_cost_net = None
        self._refresh_record_accounting()

    def _refresh_record_accounting(self) -> None:
        """The O(1) refresh of one insert, delete or re-key.

        Only the metadata footprint moved (the local filter and the
        segment change under a full refresh, nowhere else).  The L1
        array's is re-read too: it grows on the *query* path, and the next
        mutation is what has always carried that growth into the memory
        model (DESIGN.md §17).
        """
        #: Bytes of local filter, replicas, L1 array and records as of
        #: the last refresh.
        self.footprint_bytes = (
            self._filter_bytes + self.lru.size_bytes() + self._metadata_bytes
        )
        self._derive_resident_fraction()

    def _derive_resident_fraction(self) -> None:
        budget, total = self._memory_budget_bytes, self.footprint_bytes
        fraction = 1.0 if budget is None or total <= budget else budget / total
        if fraction != self.resident_fraction:
            #: Share of every structure held in memory; the rest pays disk.
            self.resident_fraction = fraction
            self._probe_cost_net = None
            self._fetch_penalty_net = None

    def probe_cost_cached(self, net) -> float:
        """Memoized ``net.probe_cost_ms(theta, resident_fraction)``."""
        if net is not self._probe_cost_net:
            self._probe_cost_ms = net.probe_cost_ms(
                len(self.segment), self.resident_fraction
            )
            self._probe_cost_net = net
        return self._probe_cost_ms

    def fetch_penalty_cached(self, net) -> float:
        """Memoized metadata-fetch latency (memory/disk blend) at this MDS."""
        if net is not self._fetch_penalty_net:
            fraction = self.resident_fraction
            self._fetch_penalty_ms = (
                fraction * net.memory_record_ms
                + (1.0 - fraction) * net.disk_access_ms
            )
            self._fetch_penalty_net = net
        return self._fetch_penalty_ms

    # ------------------------------------------------------------------
    # Home-metadata management
    # ------------------------------------------------------------------
    def insert_metadata(self, meta: FileMetadata) -> None:
        """Become home for ``meta`` (store it, reflect it in the filter)."""
        if meta.path not in self.store:
            self._metadata_bytes += meta.size_bytes()
        self.store.put(meta)
        self.local_filter.add(meta.path)
        if self._index is not None:
            self._index.local_add(self.server_id, meta.path)
        self._refresh_record_accounting()

    def insert_many(self, records: List[FileMetadata]) -> None:
        """Bulk insert; single memory-accounting refresh at the end (and
        one diff of the local filter for the cluster's index)."""
        before = self.local_filter._bits
        for meta in records:
            if meta.path not in self.store:
                self._metadata_bytes += meta.size_bytes()
            self.store.put(meta)
            self.local_filter.add(meta.path)
        if self._index is not None:
            self._index.local_changed(self.server_id, before ^ self.local_filter._bits)
        self._refresh_memory_accounting()

    def remove_metadata(self, path: str) -> bool:
        """Stop being home for ``path``.

        Plain Bloom filters cannot delete, so the local filter keeps the
        stale bit until the next rebuild (exactly the staleness the paper
        attributes false positives to).  Returns True if the path existed.
        """
        if path not in self.store:
            return False
        self._metadata_bytes -= self.store.pop(path).size_bytes()
        self._refresh_record_accounting()
        return True

    def rekey_subtree(
        self, old_prefix: str, new_prefix: str, bounds: Tuple[str, str]
    ) -> List[Tuple[str, str]]:
        """Re-key every record at or under ``old_prefix`` to the same
        place under ``new_prefix``; returns the ``(old, new)`` names.

        The home half of a rename: records stay on this server, the new
        names join the local filter (the old names' bits linger until the
        next rebuild) and the byte accounting follows the names, because a
        record's size includes its path.  Victims come from the store's
        path index and are re-keyed in sorted order (DESIGN.md §17 names
        where that order can be observed).  ``bounds`` is
        ``subtree_bounds(old_prefix)``, computed once per rename.
        """
        store = self.store
        skip = len(old_prefix)
        rekeyed = []
        for path in store.paths_under(old_prefix, bounds):
            meta = store.pop(path)
            renamed = meta.renamed(new_prefix + path[skip:])
            self._metadata_bytes -= meta.size_bytes()
            # As in insert_metadata: a record overwritten under the new
            # name hands its bytes to the one replacing it.
            if renamed.path not in store:
                self._metadata_bytes += renamed.size_bytes()
            store.put(renamed)
            self.local_filter.add(renamed.path)
            if self._index is not None:
                self._index.local_add(self.server_id, renamed.path)
            rekeyed.append((path, renamed.path))
        if rekeyed:
            self._refresh_record_accounting()
        return rekeyed

    # ------------------------------------------------------------------
    # At-most-once MUTATE_BATCH application
    # ------------------------------------------------------------------
    def apply_mutations(
        self,
        origin: int,
        acked: int,
        mutations: Sequence["PathMutation"],
        latency_ms: float,
        commit: "Optional[Callable[[PathMutation], Dict[str, Any]]]" = None,
    ) -> Tuple[List[Dict[str, Any]], float]:
        """Apply one write-back batch from ``origin`` at most once; returns
        each mutation's outcome and ``latency_ms`` plus the batch's charge.

        The write loop of every home MDS (the cluster's flush path and the
        node's ``MUTATE_BATCH`` handler).  :func:`check_mutations` runs over
        the whole batch first.  ``acked`` (the origin's cumulative ack)
        raises the origin's floor and prunes the outcome cache beneath it.
        A duplicate (a version in the cache, or at or below the floor: a
        stray re-delivery of a settled version, acked without detail) is
        replayed as ``changed=False, deduped=True`` without touching the
        store: the effect happened once, only the ack repeats.  A first
        delivery goes to ``commit``, whose outcome dict is remembered;
        the default stores or removes the record here.  Charged: one
        memory probe per mutation, plus one record fetch per mutation that
        changed state, added in batch order onto ``latency_ms``.
        """
        check_mutations(mutations)
        if commit is None:
            commit = self._commit_locally
        floor = max(self.writeback_floor.get(origin, 0), acked)
        self.writeback_floor[origin] = floor
        cache = self.writeback_outcomes.setdefault(origin, {})
        if floor:
            for version in [v for v in cache if v <= floor]:
                del cache[version]
        net = self.config.network
        probe_ms = net.memory_probe_ms
        record_ms = self.fetch_penalty_cached(net)
        outcomes = []
        for mutation in mutations:
            latency_ms += probe_ms
            version = mutation.version
            cached = cache.get(version)
            if cached is not None:
                outcome = dict(cached, changed=False, deduped=True)
            elif version <= floor:
                outcome = {
                    "version": version,
                    "op": mutation.op,
                    "path": mutation.path,
                    "applied": True,
                    "changed": False,
                    "deduped": True,
                }
            else:
                outcome = commit(mutation)
                if outcome["changed"]:
                    latency_ms += record_ms
                cache[version] = dict(outcome)
            outcomes.append(outcome)
        return outcomes, latency_ms

    def _commit_locally(self, mutation: "PathMutation") -> Dict[str, Any]:
        """The default commit: store or remove the record, arbitrating
        nothing (a delete of an absent path is an applied no-op)."""
        if mutation.op == "create":
            self.insert_metadata(mutation.record)
            changed = True
        else:
            changed = self.remove_metadata(mutation.path)
        if changed:
            self.writeback_applied += 1
        return {
            "version": mutation.version,
            "op": mutation.op,
            "path": mutation.path,
            "applied": True,
            "changed": changed,
            "deduped": False,
        }

    def rebuild_local_filter(self) -> BloomFilter:
        """Rebuild the local filter from the store (clears deletions)."""
        rebuilt = BloomFilter(
            self.config.filter_num_bits,
            self.config.filter_num_hashes,
            self.config.seed,
        )
        for path in self.store.paths():
            rebuilt.add(path)
        self.load_filters(rebuilt, self.published_filter)
        return rebuilt

    def load_filters(self, local: BloomFilter, published: BloomFilter) -> None:
        """Take ``local`` and ``published`` as this server's live and last
        published filters (a rebuild, a checkpoint restore); the cluster's
        index takes the bits that differ."""
        index = self._index
        if index is not None:
            # Published first: the live filter's change leaves the server
            # marked as drifted, whatever the two filters now hold.
            index.published(
                self.server_id, self.published_filter._bits ^ published._bits
            )
            index.local_changed(self.server_id, self.local_filter._bits ^ local._bits)
        self.local_filter = local
        self.published_filter = published
        self._refresh_memory_accounting()

    @property
    def file_count(self) -> int:
        return len(self.store)

    def has_metadata(self, path: str) -> bool:
        """Ground-truth check (leaves the store's recency order alone)."""
        return path in self.store

    def verify_and_fetch(self, path: str) -> Optional[FileMetadata]:
        """The home-MDS verification step: filter first, then store.

        The local filter has no false negatives, so a negative filter answer
        avoids any store access; a positive answer requires a store lookup
        (possibly a disk access) to confirm (paper Section 2.2, L4
        discussion).
        """
        if not self.local_filter.query(path):
            return None
        return self.store.get(path)

    def verify_many(
        self, paths: Sequence[str]
    ) -> List[Tuple[Optional[FileMetadata], bool]]:
        """The home-MDS verification of each of ``paths``, store first:
        ``(record or None, whether the local filter says "maybe")``.

        The filter has no false negatives, so a stored path is a "maybe"
        without a probe; only the store's misses are probed, in one
        :meth:`~repro.bloom.bloom_filter.BloomFilter.contains_many` pass.
        The answers are those of the filter-first order (probe, then read
        the store on a positive), which is what callers charge for: a
        "maybe" pays the record fetch, found or not.
        """
        get = self.store.get
        found = []
        misses = []
        for path in paths:
            meta = get(path)
            if meta is None:
                misses.append(path)
            found.append((meta, True))
        if not misses:
            return found
        maybes = iter(self.local_filter.contains_many(misses))
        return [pair if pair[0] is not None else (None, next(maybes)) for pair in found]

    # ------------------------------------------------------------------
    # Probe primitives used by the cluster's query path
    # ------------------------------------------------------------------
    def probe_lru(self, path: str) -> ArrayLookup:
        """L1 probe."""
        if self._l1_probe_counter is not None:
            self._l1_probe_counter.value += 1
        return self.lru.query(path)

    def probe_segment(self, path: str) -> ArrayLookup:
        """L2 probe: the local filter plus every replica assigned here.

        In a cluster it reads the index under this server's scope (its own
        LOCAL bit, the PUB bits of the copies it hosts) and tests its
        fallback replicas by mask."""
        if self._l2_probe_counter is not None:
            self._l2_probe_counter.value += 1
        index = self._index
        if index is not None:
            sid = self.server_id
            hits = index.lookup(path, index.scope[sid], index.fallback[sid])
            probes = len(self.segment._pairs) + 1
        else:
            found: set = set()
            probes = self.segment.query_into(path, found) + 1
            local = self.local_filter
            mask = local._hashes.mask(path)
            if (local._bits & mask) == mask:
                found.add(self.server_id)
            hits = tuple(sorted(found))
        if hits:
            return ArrayLookup(hits=hits, probes=probes)
        empty = self._empty_segment_lookup
        if empty is None or empty.probes != probes:
            empty = ArrayLookup(hits=(), probes=probes)
            self._empty_segment_lookup = empty
        return empty

    def record_lru(self, path: str, home_id: int) -> None:
        """Feed a resolved lookup back into the L1 array."""
        self.lru.record(path, home_id)

    # ------------------------------------------------------------------
    # Replica hosting (assigned by the group)
    # ------------------------------------------------------------------
    def _check_replica(self, replica: BloomFilter) -> None:
        """Refuse, before anything is stored, all but a filter of the
        local filter's hash family: L3 tests a member with one mask per
        path (DESIGN.md §15)."""
        if not isinstance(replica, BloomFilter):
            raise ValueError(
                f"a replica must be a BloomFilter, got {type(replica).__name__}"
            )
        if replica._hashes is not self.local_filter._hashes:
            raise ValueError(
                f"replica geometry {replica._hashes.parameters()} is not the "
                f"local filter's {self.local_filter._hashes.parameters()}"
            )

    def host_replica(self, home_id: int, replica: BloomFilter) -> None:
        self._check_replica(replica)
        self.segment.add_replica(home_id, replica)
        if self._index is not None:
            self._index.host(self.server_id, home_id, replica)
        self._refresh_memory_accounting()

    def drop_replica(self, home_id: int) -> BloomFilter:
        replica = self.segment.remove_replica(home_id)
        if self._index is not None:
            self._index.unhost(self.server_id, home_id)
        self._refresh_memory_accounting()
        return replica

    def replace_replica(self, home_id: int, replica: BloomFilter) -> None:
        self._check_replica(replica)
        self.segment.replace_replica(home_id, replica)
        if self._index is not None:
            self._index.unhost(self.server_id, home_id)
            self._index.host(self.server_id, home_id, replica)
        self._refresh_memory_accounting()

    def hosted_replicas(self) -> List[int]:
        return self.segment.home_ids()

    @property
    def theta(self) -> int:
        """Number of replicas currently hosted (the paper's theta)."""
        return len(self.segment)

    # ------------------------------------------------------------------
    # Replication bookkeeping
    # ------------------------------------------------------------------
    def publish_filter(self) -> BloomFilter:
        """Snapshot the local filter for replication; returns the replica."""
        published = self.local_filter.copy()
        if self._index is not None:
            self._index.published(
                self.server_id, self.published_filter._bits ^ published._bits
            )
        self.published_filter = published
        return published.copy()

    def staleness_bits(self) -> int:
        """Bit difference between the live and last-published filters."""
        return bit_difference(self.local_filter, self.published_filter)

    def __repr__(self) -> str:
        return (
            f"MetadataServer(id={self.server_id}, files={self.file_count}, "
            f"theta={self.theta})"
        )
