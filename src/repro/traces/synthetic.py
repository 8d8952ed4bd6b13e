"""Synthetic trace generation from a :class:`TraceProfile`.

The generator builds a file population laid out as a directory tree, then
emits a stream of timestamped metadata operations with:

- the profile's operation mix,
- Zipfian file popularity over the *active* subset of files,
- explicit open→close pairing: every OPEN schedules its matching CLOSE a
  short, random interval later, which reproduces both the near-equal
  open/close counts of Tables 3-4 and the temporal locality the L1 LRU
  array exploits,
- Poisson arrivals at a configurable aggregate rate.

All randomness is drawn from a single seeded RNG, so a given
``(profile, num_files, num_ops, seed)`` tuple always produces the same trace.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Tuple

from typing import Dict, Optional

from repro.sim.rng import ZipfSampler, make_rng, weighted_choice
from repro.traces.profiles import TraceProfile
from repro.traces.records import MetadataOp, TraceRecord
from repro.traces.tenants import TenantModel


def build_file_population(
    profile: TraceProfile,
    num_files: int,
    seed: int = 0,
) -> List[str]:
    """Return ``num_files`` pathnames laid out as a directory tree.

    Directories nest to approximately ``profile.mean_dir_depth`` with
    ``profile.files_per_directory`` files per leaf directory.
    """
    if num_files <= 0:
        raise ValueError(f"num_files must be positive, got {num_files}")
    rng = make_rng(seed ^ 0x5EED_F11E)
    paths: List[str] = []
    files_per_dir = max(1, profile.files_per_directory)
    num_dirs = (num_files + files_per_dir - 1) // files_per_dir
    for dir_index in range(num_dirs):
        depth = max(1, int(rng.gauss(profile.mean_dir_depth, 1.0)))
        components = [
            f"d{dir_index % 7}",
            *(f"s{(dir_index // (level + 1)) % 11}" for level in range(depth - 2)),
            f"dir{dir_index}",
        ]
        directory = "/" + "/".join(components[: max(1, depth)])
        for file_index in range(files_per_dir):
            if len(paths) >= num_files:
                break
            paths.append(f"{directory}/f{dir_index}_{file_index}")
    return paths


class SyntheticTraceGenerator:
    """Streaming generator of :class:`TraceRecord` for one profile.

    Parameters
    ----------
    profile:
        Workload shape.
    num_files:
        Size of the file population.
    seed:
        Master seed.
    ops_per_second:
        Aggregate Poisson arrival rate of metadata operations.
    close_delay_mean:
        Mean interval between an OPEN and its paired CLOSE (seconds).
    """

    def __init__(
        self,
        profile: TraceProfile,
        num_files: int,
        seed: int = 0,
        ops_per_second: float = 1000.0,
        close_delay_mean: float = 0.5,
        tenants: Optional[TenantModel] = None,
    ) -> None:
        if ops_per_second <= 0:
            raise ValueError(f"ops_per_second must be positive, got {ops_per_second}")
        if close_delay_mean <= 0:
            raise ValueError(
                f"close_delay_mean must be positive, got {close_delay_mean}"
            )
        self.profile = profile
        self.paths = build_file_population(profile, num_files, seed)
        self._rng = make_rng(seed)
        self._rate = ops_per_second
        self._close_delay_mean = close_delay_mean
        active_count = max(1, int(len(self.paths) * profile.active_file_fraction))
        self._active_paths = self.paths[:active_count]
        self._zipf = ZipfSampler(active_count, profile.zipf_alpha, self._rng)
        self._num_users = max(
            1, int(len(self.paths) / 1000.0 * profile.users_per_1k_files)
        )
        self._num_hosts = max(
            1, int(len(self.paths) / 1000.0 * profile.hosts_per_1k_files)
        )
        # Draw mix excludes CLOSE: closes come from pairing with opens.
        self._draw_ops = [
            op for op in profile.op_mix if op is not MetadataOp.CLOSE
        ]
        self._draw_weights = [profile.op_mix[op] for op in self._draw_ops]
        self._created_serial = 0
        # Multi-tenant mode (None → identities drawn exactly as before,
        # byte-identical traces for every existing seed).
        self.tenants = tenants
        self._seed = seed
        self._tenant_zipf: Optional[ZipfSampler] = None
        self._tenant_file_zipf: Optional[ZipfSampler] = None
        self._tenant_perms: Dict[int, Tuple[int, int]] = {}
        if tenants is not None:
            self._tenant_zipf = ZipfSampler(
                tenants.num_tenants, tenants.zipf_alpha, self._rng
            )
            self._tenant_file_zipf = ZipfSampler(
                active_count, profile.zipf_alpha, self._rng
            )

    @property
    def num_users(self) -> int:
        return self._num_users

    @property
    def num_hosts(self) -> int:
        return self._num_hosts

    def _sample_path(self) -> str:
        return self._active_paths[self._zipf.sample()]

    def _sample_identity(self) -> Tuple[int, int]:
        return (
            self._rng.randrange(self._num_users),
            self._rng.randrange(self._num_hosts),
        )

    def _sample_tenant_identity(self) -> Tuple[int, int]:
        """Zipf-draw the issuing tenant; ``uid`` *is* the tenant index."""
        assert self._tenant_zipf is not None
        tenant_index = self._tenant_zipf.sample()
        return tenant_index, tenant_index % self._num_hosts

    def _sample_tenant_path(self, tenant_index: int) -> str:
        """One Zipf file draw through the tenant's own permutation.

        Each tenant ranks the same active population differently (affine
        bijection), so hot sets are disjoint-ish across tenants while
        the marginal popularity law stays the profile's.
        """
        assert self.tenants is not None
        assert self._tenant_file_zipf is not None
        count = len(self._active_paths)
        perm = self._tenant_perms.get(tenant_index)
        if perm is None:
            perm = self.tenants.permutation(tenant_index, count, self._seed)
            self._tenant_perms[tenant_index] = perm
        a, b = perm
        rank = self._tenant_file_zipf.sample()
        return self._active_paths[(a * rank + b) % count]

    def generate(self, num_ops: int) -> Iterator[TraceRecord]:
        """Yield ``num_ops`` records in timestamp order.

        Paired CLOSE records count toward ``num_ops``; the stream is merged
        so timestamps are non-decreasing.
        """
        if num_ops < 0:
            raise ValueError(f"num_ops must be non-negative, got {num_ops}")
        now = 0.0
        emitted = 0
        pending_closes: List[Tuple[float, int, TraceRecord]] = []
        close_seq = 0
        while emitted < num_ops:
            # Flush any paired CLOSE that is due before the next arrival.
            gap = self._rng.expovariate(self._rate)
            next_arrival = now + gap
            while (
                pending_closes
                and pending_closes[0][0] <= next_arrival
                and emitted < num_ops
            ):
                _, _, record = heapq.heappop(pending_closes)
                emitted += 1
                yield record
            if emitted >= num_ops:
                break
            now = next_arrival
            record = self._draw_record(now)
            emitted += 1
            yield record
            if record.op is MetadataOp.OPEN:
                delay = self._rng.expovariate(1.0 / self._close_delay_mean)
                close = TraceRecord(
                    timestamp=now + delay,
                    op=MetadataOp.CLOSE,
                    path=record.path,
                    uid=record.uid,
                    host=record.host,
                )
                heapq.heappush(pending_closes, (close.timestamp, close_seq, close))
                close_seq += 1
        # Drain leftovers only if we still owe records (num_ops not reached).
        while pending_closes and emitted < num_ops:
            _, _, record = heapq.heappop(pending_closes)
            emitted += 1
            yield record

    def _draw_record(self, now: float) -> TraceRecord:
        op = self._draw_ops[weighted_choice(self._draw_weights, self._rng)]
        if self.tenants is not None:
            uid, host = self._sample_tenant_identity()
            sample = lambda: self._sample_tenant_path(uid)  # noqa: E731
        else:
            uid, host = self._sample_identity()
            sample = self._sample_path
        if op is MetadataOp.CREATE:
            self._created_serial += 1
            parent = sample().rsplit("/", 1)[0]
            path = f"{parent}/new{self._created_serial}"
            return TraceRecord(now, op, path, uid=uid, host=host)
        if op is MetadataOp.RENAME:
            source = sample()
            return TraceRecord(
                now, op, source, uid=uid, host=host,
                new_path=source + ".renamed",
            )
        return TraceRecord(now, op, sample(), uid=uid, host=host)


def generate_trace(
    profile: TraceProfile,
    num_files: int,
    num_ops: int,
    seed: int = 0,
    ops_per_second: float = 1000.0,
) -> List[TraceRecord]:
    """Convenience wrapper: materialize a full synthetic trace as a list."""
    generator = SyntheticTraceGenerator(
        profile, num_files, seed=seed, ops_per_second=ops_per_second
    )
    return list(generator.generate(num_ops))
