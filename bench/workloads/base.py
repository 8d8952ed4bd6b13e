"""What every workload provides, and the inputs they share.

A workload is split so the pass runner can time each phase on its own:
``generate`` (inputs from the seed — never timed), ``build`` (set-up:
construct, populate, synchronize), then, once per execution, ``warm_up``,
``timed`` (the closed-loop client), ``check`` (oracle + digest stream)
and ``counters``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.traces import PROFILES, SyntheticTraceGenerator

#: File population of every workload (ISSUE 11).
FILES = 20_000
#: MDS fleet of the in-process workloads.
SERVERS = 30
#: Passes per run (fresh interpreters: one set-up each) and executions of
#: the op list per pass; ``--seconds`` is split evenly between the
#: ``PASSES * REPLAYS`` executions.
PASSES = 3
REPLAYS = 3
#: ``BENCHMARK.json``'s ``run_seconds`` and the default ``--seconds``.
#: The ``*_PER_SECOND`` rates give an execution of about
#: ``seconds / (PASSES * REPLAYS)`` on the 2-core reference box.  Not 10:
#: the driver's 136 runs have to fit in 3 420 s with their set-ups, also
#: in an hour in which the host runs at half speed.
NOMINAL_SECONDS = 6
#: CPU time is read about this many times in a timed phase (a reading
#: costs ~0.7 us, outside every latency sample).
CPU_CHUNKS = 1024


def fleet_config() -> GHBAConfig:
    return GHBAConfig(
        max_group_size=6,
        expected_files_per_mds=1000,
        lru_capacity=2000,
        lru_filter_bits=1 << 12,
    )


def build_fleet(seed: int, paths: Sequence[str]) -> Tuple[GHBACluster, Dict[str, int]]:
    """The 30-MDS fleet, populated and with every replica published."""
    cluster = GHBACluster(SERVERS, fleet_config(), seed=seed)
    placement = cluster.populate(paths)
    cluster.synchronize_replicas(force=True)
    return cluster, placement


def hp_generator(seed: int) -> SyntheticTraceGenerator:
    return SyntheticTraceGenerator(PROFILES["HP"], FILES, seed=seed)


def zipf_lookups(generator: SyntheticTraceGenerator, count: int) -> List[str]:
    """The first ``count`` lookup paths of the HP trace (open/close/stat
    over the Zipf-popular active files)."""
    # ~92 % of HP records are lookups; over-generate, then cut.
    records = generator.generate(int(count / 0.85) + 1000)
    lookups = [record.path for record in records if record.op.is_lookup]
    if len(lookups) < count:
        raise RuntimeError(f"trace gave {len(lookups)} lookups, wanted {count}")
    return lookups[:count]


def scaled(per_second: float, seconds: float, minimum: int = 1) -> int:
    """Op count of one execution: ``per_second`` ops for its share of
    ``seconds``.  Deterministic, so counts and digests repeat exactly."""
    return max(minimum, int(round(per_second * seconds / (PASSES * REPLAYS))))


class NamespaceChurn:
    """Picks the files and directories the mutating workloads touch.

    Victims come from the cold 76 % of the population so the Zipf hot
    set keeps resolving; created files live beside hot ones; renamed
    directories are leaf ``.../dirN`` directories (files only) from the
    coldest half, each renamed once.
    """

    ACTIVE_SHARE = 0.24  # HP profile: the files the trace ever touches

    def __init__(self, paths: Sequence[str], rng: random.Random, prefix: str) -> None:
        self._rng = rng
        self._prefix = prefix
        active = int(len(paths) * self.ACTIVE_SHARE)
        self._cold = list(paths[active:])
        rng.shuffle(self._cold)
        leaves: Dict[str, None] = {}
        for path in paths[active + (len(paths) - active) // 2 :]:
            directory = path.rsplit("/", 1)[0]
            if directory.rsplit("/", 1)[1].startswith("dir"):
                leaves.setdefault(directory, None)
        self._rename_dirs = list(reversed(leaves))
        self._renamed: set = set()
        self.created: List[str] = []
        self._serial = 0
        self._deletes = 0

    def create(self, beside: str) -> str:
        """A never-used path in the directory of ``beside``."""
        self._serial += 1
        path = f"{beside.rsplit('/', 1)[0]}/{self._prefix}{self._serial}"
        self.created.append(path)
        return path

    def victim(self) -> str:
        """A live file to delete: alternately a created and a cold one."""
        self._deletes += 1
        if self.created and self._deletes % 2 == 0:
            return self.created.pop(self._rng.randrange(len(self.created)))
        victim = self._cold.pop()
        while victim.rsplit("/", 1)[0] in self._renamed:
            victim = self._cold.pop()
        return victim

    def rename(self) -> Tuple[str, str]:
        directory = self._rename_dirs.pop()
        self._renamed.add(directory)
        return directory, directory + ".mv"


def cluster_counters(cluster: GHBACluster) -> Dict[str, float]:
    """The fleet's own monotonic counters, as the ledger reads them."""
    hits = sum(server.lru.hits for server in cluster.servers.values())
    misses = sum(server.lru.misses for server in cluster.servers.values())
    out = {
        f"queries.{level}": count for level, count in cluster.level_counter.as_dict().items()
    }
    out.update(
        {
            "queries": cluster.latency.count,
            "virtual_latency_sum_ms": cluster.latency.sum,
            "messages": cluster.total_messages,
            "false_forwards": cluster.total_false_forwards,
            "l1_hits": hits,
            "l1_probes": hits + misses,
        }
    )
    return out


def filter_bytes_per_mds(cluster: GHBACluster) -> float:
    sizes = cluster.memory_bytes_per_server()
    return sum(sizes.values()) / len(sizes)


def shuffled_kinds(rng: random.Random, count: int, shares: Dict[str, float]) -> List[str]:
    """``count`` op kinds in exactly the given proportions, shuffled.

    Exact counts rather than a draw per op: the expensive kinds are rare
    (a rename is 100x a query), so binomial noise in how many a seed
    happens to get would move throughput by several percent.  The last
    kind takes the rounding remainder.
    """
    kinds: List[str] = []
    names = list(shares)
    for name in names[:-1]:
        kinds.extend([name] * int(round(count * shares[name])))
    kinds.extend([names[-1]] * (count - len(kinds)))
    rng.shuffle(kinds)
    return kinds


class CpuMarks:
    """This process's CPU time (every thread, user+sys) in about
    ``CPU_CHUNKS`` consecutive chunks of a timed phase's calls.

    In chunks, so that a run can take each chunk's cheapest execution:
    the host's slow spells inflate CPU time as they inflate wall time.
    """

    def __init__(self, calls: int) -> None:
        self.every = max(1, calls // CPU_CHUNKS)
        self._marks = [time.process_time()]

    def after_call(self, index: int) -> None:
        if index % self.every == 0:
            self._marks.append(time.process_time())

    def chunks(self) -> List[float]:
        self._marks.append(time.process_time())
        return [end - start for start, end in zip(self._marks, self._marks[1:])]


@dataclass
class Timed:
    """Raw product of a timed phase."""

    #: One sample per timed call.
    latencies_s: List[float]
    results: List[Any]
    ops: int
    wall_s: float
    cpu_chunks_s: List[float]


@dataclass
class Verdict:
    """Oracle outcome of one pass.

    ``stream`` is the ordered ``(found, home, level/outcome)`` record the
    determinism digest is taken over.
    """

    attempted: int = 0
    failed: int = 0
    stream: List[Any] = field(default_factory=list)
    examples: List[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append(what)


def replay_rename(homes: Dict[str, Any], old: str, new: str) -> int:
    """Apply a subtree rename to the oracle; returns the files moved."""
    prefix = old + "/"
    moved = [path for path in homes if path.startswith(prefix)]
    for path in moved:
        homes[new + path[len(old) :]] = homes.pop(path)
    return len(moved)


def check_final_state(verdict: Verdict, cluster: GHBACluster, homes: Dict[str, Any]) -> None:
    """The fleet holds exactly the files the oracle says, where it says
    (after a flush barrier this is the lost-acknowledgement check)."""
    live = {
        path: server.server_id
        for server in cluster.servers.values()
        for path in server.store.paths()
    }
    verdict.attempted += 1
    if live != homes:
        wrong = [p for p in set(live) | set(homes) if live.get(p) != homes.get(p)]
        verdict.fail(f"final state differs from the oracle at {sorted(wrong)[:3]}")


class Workload:
    """Base class; subclasses fill in the phases."""

    name = ""
    why = ""
    #: Span families that must record > 0 calls in the traced pass ...
    required: Tuple[str, ...] = ()
    #: ... and families that must record none (layer not on the path).
    absent: Tuple[str, ...] = ()
    #: What one ``op`` is, for the README and the printed table.
    op_unit = "op"
    #: Counters that depend on thread interleaving, not on the inputs
    #: (left out of the determinism digest).
    unstable_counters: Tuple[str, ...] = ()
    #: Name prefixes of threads that are not closed-loop clients.
    background_threads: Tuple[str, ...] = ()

    def generate(self, seed: int, seconds: float) -> Dict[str, Any]:
        raise NotImplementedError

    #: Whether an execution runs in a forked copy of the built system
    #: (every execution then starts from the same state, bit for bit).
    #: A workload with threads and child processes of its own cannot
    #: fork; it executes in place and ``restore``s afterwards.
    forks = True

    def build(self, inputs: Dict[str, Any], seed: int, workdir) -> Any:
        raise NotImplementedError

    def warm_up(self, system: Any, inputs: Dict[str, Any]) -> None:
        """Untimed calls before the timed phase.  Part of every
        execution, not of ``build``: in a forked copy they also touch the
        pages the timed phase will write, so it pays no copy-on-write."""
        raise NotImplementedError

    def timed(self, system: Any, inputs: Dict[str, Any]) -> Timed:
        raise NotImplementedError

    def check(self, system: Any, inputs: Dict[str, Any], timed: Timed) -> Verdict:
        raise NotImplementedError

    def counters(self, system: Any) -> Dict[str, float]:
        """Monotonic counters; the runner reports timed-phase deltas."""
        return {}

    def gauges(self, system: Any) -> Dict[str, float]:
        """Point-in-time values read once, after the timed phase."""
        return {}

    def child_pids(self, system: Any) -> List[int]:
        return []

    def probe(self, system: Any, inputs: Dict[str, Any]) -> Dict[str, float]:
        """Extra measurements of the traced pass (after the timed phase)."""
        return {}

    def restore(self, system: Any, inputs: Dict[str, Any]) -> None:
        """Undo an in-place execution (``forks = False`` only)."""

    def close(self, system: Any) -> None:
        pass


def new_rng(seed: int, salt: str) -> random.Random:
    """A driver-side RNG, independent of the program's own streams."""
    return random.Random(f"bench:{salt}:{seed}")
