"""Frozen reference: ``repro.baselines.hba`` as it stood before ISSUE 18
made ``HBACluster`` a ``GHBACluster`` at ``max_group_size = 1``.

Everything below the next docstring marker is a verbatim copy of that
module — its own L1 -> L2 -> L4 walk, its update / sync / join / leave
accounting and its ``Counter`` / ``LatencyRecorder`` bookkeeping.
``tests/property/test_hba_differential.py`` drives this class and the live
one through the same seeded scripts and diffs every observable, so do not
"fix" or modernize this file; it is the oracle, like
``_reference_rename.py`` and ``_reference_reconfig.py``.

One number is *expected* to differ and is not compared: a departure here
costs N - 1 messages (the survivors' drops); the live class carries out the
reconfiguration plan, which also charges the N - 1 drops the departing MDS
is told to make (DESIGN.md section 2, "HBA is G-HBA at M = 1").

ISSUE 23 deleted ``repro.sim.stats.Counter`` (this file was its last
reader outside two baselines); the class is frozen below, body verbatim,
so the reference keeps the tally it was written against.
Then ``repro.sim.stats`` went as a whole (a histogram child of
``repro.obs.registry`` is now its own recorder); ``LatencyRecorder`` is
frozen below the same way, body verbatim.

The original module docstring follows.

HBA: Hierarchical Bloom filter Arrays (Zhu, Jiang, Wang — Cluster 2004).

The state-of-the-art Bloom-filter scheme the paper compares against.  Every
MDS stores a *complete* array of Bloom filter replicas — one per MDS in the
system — fronted by an LRU Bloom filter array exploiting temporal locality.
Queries resolve in two local levels:

- L1: the LRU array (identical to G-HBA's L1);
- L2: the full replica array — a unique hit names the home MDS directly;
- fallback: a global multicast (rare: only on zero/multiple hits or false
  routing).

The costs that G-HBA improves upon are structural:

- **memory** — N replicas per MDS instead of ``(N - M') / M'``; at scale the
  array outgrows main memory and probes start paying disk latency
  (Figures 8-10);
- **updates** — a replica update must reach every MDS (N - 1 messages)
  instead of one MDS per group (Figure 12);
- **reconfiguration** — a joining MDS must receive all N existing replicas
  and ship its own to everyone (Figures 11 and 15).
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, List, Optional

from repro.core.cluster import populate_servers
from repro.core.config import GHBAConfig
from repro.core.query import QueryLevel, QueryResult
from repro.core.server import MetadataServer
from repro.metadata.attributes import FileMetadata


class Counter:
    """A bag of named integer counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def increment(self, name: str, amount: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def total(self) -> int:
        return sum(self._counts.values())

    def fractions(self) -> Dict[str, float]:
        """Each counter as a fraction of the total (empty → {})."""
        total = self.total()
        if total == 0:
            return {}
        return {name: count / total for name, count in self._counts.items()}

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def clear(self) -> None:
        self._counts.clear()

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def __repr__(self) -> str:
        return f"Counter({self._counts!r})"


class LatencyRecorder:
    """Streaming latency statistics with reservoir-sampled percentiles.

    The mean/min/max/count are exact; percentiles are computed over a
    uniform reservoir of ``reservoir_size`` samples (deterministic given the
    seed), which is accurate to well under a percentile point at the sample
    counts our experiments produce.
    """

    def __init__(self, reservoir_size: int = 4096, seed: int = 0) -> None:
        if reservoir_size <= 0:
            raise ValueError(f"reservoir_size must be positive, got {reservoir_size}")
        self._count = 0
        self._sum = 0.0
        self._sum_sq = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._reservoir: List[float] = []
        self._reservoir_size = reservoir_size
        self._rng = random.Random(seed)

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"latency must be non-negative, got {value}")
        self._count += 1
        self._sum += value
        self._sum_sq += value * value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        reservoir = self._reservoir
        if len(reservoir) < self._reservoir_size:
            reservoir.append(value)
        else:
            # Same draw sequence as ``randrange(self._count)`` without the
            # argument-validation wrapper (this runs once per observation).
            slot = self._rng._randbelow(self._count)
            if slot < self._reservoir_size:
                reservoir[slot] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        """Sum of the recorded values, added in recording order."""
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._count else 0.0

    @property
    def variance(self) -> float:
        if self._count < 2:
            return 0.0
        mean = self.mean
        return max(0.0, self._sum_sq / self._count - mean * mean)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def percentile(self, p: float) -> float:
        """Return the ``p``-th percentile (0 <= p <= 100).

        Accuracy contract:

        - With no recorded samples the result is ``0.0`` (matching
          :attr:`mean`/:attr:`minimum`/:attr:`maximum` on an empty recorder),
          never an exception.
        - ``p == 0`` and ``p == 100`` return the *exact* streamed
          :attr:`minimum` / :attr:`maximum` — extremes are tracked outside
          the reservoir, so they never suffer sampling error.
        - Interior percentiles interpolate over the uniform reservoir.
          While ``count <= reservoir_size`` the reservoir holds every
          sample and the result is exact; beyond that it is a
          deterministic (seeded) uniform sample of ``reservoir_size``
          values, accurate to well under a percentile point at the sample
          counts our experiments produce.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"p must be in [0, 100], got {p}")
        if not self._reservoir:
            return 0.0
        if p == 0.0:
            return self.minimum
        if p == 100.0:
            return self.maximum
        ordered = sorted(self._reservoir)
        rank = p / 100.0 * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        weight = rank - low
        return ordered[low] * (1.0 - weight) + ordered[high] * weight

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self._count),
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:
        return (
            f"LatencyRecorder(count={self._count}, mean={self.mean:.4f}, "
            f"max={self.maximum:.4f})"
        )


class HBACluster:
    """An HBA deployment of ``num_servers`` MDSs.

    Reuses :class:`~repro.core.server.MetadataServer` with the *segment*
    array repurposed as the full replica array (every other server's
    replica is hosted locally).

    Parameters
    ----------
    num_servers:
        Number of MDSs (N).
    config:
        Shared tunables (filter geometry, LRU, memory budget).  The
        ``max_group_size`` field is ignored — HBA has no groups.
    use_lru:
        Disable to obtain the pure BFA behaviour (no L1 level).
    """

    def __init__(
        self,
        num_servers: int,
        config: Optional[GHBAConfig] = None,
        seed: int = 0,
        use_lru: bool = True,
    ) -> None:
        if num_servers < 1:
            raise ValueError(f"num_servers must be >= 1, got {num_servers}")
        self.config = config or GHBAConfig()
        self.use_lru = use_lru
        self._rng = random.Random(seed)
        self._next_server_id = 0
        self.servers: Dict[int, MetadataServer] = {}
        self.level_counter = Counter()
        self.latency = LatencyRecorder(seed=seed)
        self.total_messages = 0
        self.total_false_forwards = 0
        for _ in range(num_servers):
            self._add_initial_server()
        self._install_all_replicas()

    def _add_initial_server(self) -> MetadataServer:
        server = MetadataServer(self._next_server_id, self.config)
        self.servers[server.server_id] = server
        self._next_server_id += 1
        return server

    def _install_all_replicas(self) -> None:
        for server in self.servers.values():
            template = server.publish_filter()
            for other in self.servers.values():
                if other.server_id == server.server_id:
                    continue
                if server.server_id in other.segment:
                    other.replace_replica(server.server_id, template.copy())
                else:
                    other.host_replica(server.server_id, template.copy())

    # ------------------------------------------------------------------
    # Introspection / population (mirrors GHBACluster's interface)
    # ------------------------------------------------------------------
    @property
    def num_servers(self) -> int:
        return len(self.servers)

    def server_ids(self) -> List[int]:
        return sorted(self.servers)

    def home_of(self, path: str) -> Optional[int]:
        for server in self.servers.values():
            if server.has_metadata(path):
                return server.server_id
        return None

    def insert_file(self, meta: FileMetadata, home_id: Optional[int] = None) -> int:
        if home_id is None:
            home_id = self._rng.choice(sorted(self.servers))
        self.servers[home_id].insert_metadata(meta)
        return home_id

    def populate(self, paths: Iterable[str], policy: str = "random") -> Dict[str, int]:
        return populate_servers(self.servers, paths, policy, self._rng)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        path: str,
        origin_id: Optional[int] = None,
        outstanding: int = 0,
    ) -> QueryResult:
        """Resolve ``path``: L1 LRU → L2 full array → global multicast."""
        net = self.config.network
        if origin_id is None:
            origin_id = self._rng.choice(sorted(self.servers))
        origin = self.servers[origin_id]
        latency = 0.0
        messages = 0
        false_forwards = 0

        def finish(level: QueryLevel, home: Optional[int]) -> QueryResult:
            result = QueryResult(
                path=path,
                home_id=home,
                level=level,
                latency_ms=latency,
                messages=messages,
                false_forwards=false_forwards,
                origin_id=origin_id,
            )
            self.level_counter.increment(level.label)
            self.latency.record(latency)
            self.total_messages += messages
            self.total_false_forwards += false_forwards
            if home is not None and self.use_lru:
                origin.record_lru(path, home)
            return result

        def verify_at(server: MetadataServer) -> Optional[FileMetadata]:
            nonlocal latency
            latency += net.memory_probe_ms
            if not server.local_filter.query(path):
                return None
            latency += server.fetch_penalty_cached(net)
            return server.store.get(path)

        def forward_and_verify(target_id: int) -> Optional[FileMetadata]:
            nonlocal latency, messages
            if target_id != origin_id:
                latency += net.round_trip_ms() + 0.0
                messages += 2
            return verify_at(self.servers[target_id])

        # L1: LRU array
        if self.use_lru:
            latency += net.memory_probe_ms * max(1, origin.lru.num_filters)
            l1 = origin.probe_lru(path)
            if l1.is_unique:
                meta = forward_and_verify(l1.unique_hit)
                if meta is not None:
                    return finish(QueryLevel.L1, l1.unique_hit)
                false_forwards += 1
                origin.lru.invalidate(path)

        # L2: the full replica array — HBA's defining probe.  The array
        # holds N-1 replicas; its memory residency drives Figures 8-10.
        latency += origin.probe_cost_cached(net)
        latency += net.memory_probe_ms  # own local filter
        l2 = origin.probe_segment(path)
        if l2.is_unique:
            meta = forward_and_verify(l2.unique_hit)
            if meta is not None:
                return finish(QueryLevel.L2, l2.unique_hit)
            false_forwards += 1

        # Fallback: global multicast (counted as L4 to align level labels).
        latency += net.global_multicast_ms(self.num_servers)
        latency += 0.0
        messages += 2 * (self.num_servers - 1)
        verify_costs = [net.memory_probe_ms]
        found_home: Optional[int] = None
        for server in self.servers.values():
            if not server.local_filter.query(path):
                continue
            meta_fraction = server.resident_fraction
            verify_costs.append(
                net.memory_probe_ms
                + meta_fraction * net.memory_record_ms
                + (1.0 - meta_fraction) * net.disk_access_ms
            )
            if server.store.get(path) is not None:
                found_home = server.server_id
        latency += max(verify_costs)
        if found_home is not None:
            return finish(QueryLevel.L4, found_home)
        return finish(QueryLevel.NEGATIVE, None)

    # ------------------------------------------------------------------
    # Replica updates (Figure 12's HBA cost)
    # ------------------------------------------------------------------
    def update_server_replicas(self, server_id: int) -> Dict[str, float]:
        """Re-publish one server's filter to every other MDS.

        Returns message and latency accounting: a system-wide multicast of
        N - 1 messages (vs. G-HBA's one message per group).
        """
        server = self.servers[server_id]
        template = server.publish_filter()
        messages = 0
        for other in self.servers.values():
            if other.server_id == server_id:
                continue
            other.replace_replica(server_id, template.copy())
            messages += 1
        latency_ms = self.config.network.multicast_ms(self.num_servers - 1)
        return {"messages": messages, "latency_ms": latency_ms}

    def synchronize_replicas(self, force: bool = False) -> Dict[str, float]:
        """Update every drifted server's replicas everywhere."""
        threshold = self.config.update_threshold_bits
        messages = 0
        latency_ms = 0.0
        updated = 0
        for server in list(self.servers.values()):
            if not force and server.staleness_bits() <= threshold:
                continue
            report = self.update_server_replicas(server.server_id)
            messages += int(report["messages"])
            latency_ms += report["latency_ms"]
            updated += 1
        return {
            "servers_updated": updated,
            "messages": messages,
            "latency_ms": latency_ms,
        }

    # ------------------------------------------------------------------
    # Reconfiguration (Figures 11 and 15's HBA cost)
    # ------------------------------------------------------------------
    def add_server(self) -> Dict[str, int]:
        """Add one MDS: it must receive all N replicas and ship its own.

        Returns ``migrated_replicas`` (N: the full mirror copied to the
        newcomer — the paper's Figure 11 line for HBA) and ``messages``
        (the replica exchange with every existing MDS, Figure 15).
        """
        existing = list(self.servers.values())
        newcomer = self._add_initial_server()
        migrated = 0
        messages = 0
        for other in existing:
            newcomer.host_replica(other.server_id, other.published_filter.copy())
            migrated += 1
            messages += 1
        template = newcomer.publish_filter()
        for other in existing:
            other.host_replica(newcomer.server_id, template.copy())
            messages += 1
        return {
            "server_id": newcomer.server_id,
            "migrated_replicas": migrated,
            "messages": messages,
        }

    def remove_server(self, server_id: int) -> Dict[str, int]:
        """Remove an MDS; every other MDS drops its replica."""
        if server_id not in self.servers:
            raise KeyError(f"unknown server {server_id}")
        if self.num_servers == 1:
            raise ValueError("cannot remove the last server")
        del self.servers[server_id]
        messages = 0
        for other in self.servers.values():
            if server_id in other.segment:
                other.drop_replica(server_id)
                messages += 1
            other.lru.invalidate_home(server_id)
        return {"server_id": server_id, "messages": messages}

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_bytes_per_server(self) -> Dict[int, int]:
        return {
            sid: server.segment.size_bytes()
            + server.local_filter.size_bytes()
            + (server.lru.size_bytes() if self.use_lru else 0)
            for sid, server in self.servers.items()
        }

    def level_fractions(self) -> Dict[str, float]:
        return self.level_counter.fractions()

    def __repr__(self) -> str:
        return f"HBACluster(servers={self.num_servers}, use_lru={self.use_lru})"
