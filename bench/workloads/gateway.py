"""Gateway workloads: ``MetadataClient`` in front of the in-process fleet.

Ticks carry one lookup from each concurrent client (tenant): eight of
them, two on ``gw_cold_scan``.  The virtual clock advances 1/2000 s per
lookup and admission is provisioned at four times that offered rate, so
nothing sheds by design.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.cluster import GHBACluster
from repro.gateway.client import GatewayConfig, MetadataClient, Outcome

from bench.workloads.base import (
    SERVERS,
    CpuMarks,
    NamespaceChurn,
    Timed,
    Verdict,
    Workload,
    build_fleet,
    check_final_state,
    cluster_counters,
    filter_bytes_per_mds,
    hp_generator,
    new_rng,
    replay_rename,
    scaled,
    shuffled_kinds,
    zipf_lookups,
)

TICK = 8
TENANTS = tuple(f"c{index}" for index in range(TICK))
#: Offered load on the virtual clock, whatever the tick size.
LOOKUPS_PER_VIRTUAL_S = 2000.0
TICK_DT_S = TICK / LOOKUPS_PER_VIRTUAL_S
CACHE_CAPACITY = 4096


def gateway_config(writeback: bool = False) -> GatewayConfig:
    return GatewayConfig(
        cache_capacity=CACHE_CAPACITY,
        rate_per_s=8000.0,
        burst=800.0,
        writeback=writeback,
    )


def as_tick(paths: List[str]) -> List[Tuple[str, str]]:
    return [(TENANTS[index % TICK], path) for index, path in enumerate(paths)]


@dataclass
class Gateway:
    cluster: GHBACluster
    client: MetadataClient
    placement: Dict[str, int]
    now: float = 0.0
    mutations: int = 0
    stale_reads: int = 0


def gateway_counters(system: Gateway) -> Dict[str, float]:
    client = system.client
    cache, admission = client.cache.stats, client.admission.stats
    out = cluster_counters(system.cluster)

    def family(name: str) -> float:
        found = client.metrics.get(name)
        return found.total() if found is not None else 0.0

    out.update(
        {
            "cache_hits": cache.hits + cache.negative_hits,
            "cache_probes": cache.hits + cache.negative_hits + cache.misses,
            "cache_evictions": cache.evictions,
            "admission_shed": admission.shed,
            "admission_queued": admission.queued,
            "coalesced": family("gateway_coalesced_total"),
            "backend_queries": client.backend_queries,
            "backend_mutations": client.backend_mutations,
            "mutations": system.mutations,
            "wb_flush_batches": family("gateway_writeback_flush_batches_total"),
            "wb_flushed": family("gateway_writeback_flushed_total"),
            "wb_absorbed": family("gateway_writeback_absorbed_total"),
            "wb_lost": family("gateway_writeback_lost_total"),
            "wb_conflicts": family("gateway_writeback_conflict_total"),
        }
    )
    return out


def gateway_gauges(system: Gateway) -> Dict[str, float]:
    return {
        "filter_bytes_per_mds": filter_bytes_per_mds(system.cluster),
        "hotspot_pins": len(system.client.cache.pinned_paths()),
        "stale_reads": system.stale_reads,
    }


def check_tick(
    verdict: Verdict,
    system: Gateway,
    requested: List[str],
    responses: list,
    homes: Dict[str, Optional[int]],
) -> None:
    """Every request of a tick answered, and answered as the oracle says."""
    verdict.attempted += len(requested)
    if len(responses) != len(requested):
        for _ in range(abs(len(requested) - len(responses))):
            verdict.fail(f"tick of {len(requested)} got {len(responses)} responses")
    for response in responses:
        verdict.stream.append((response.found, response.home_id, response.outcome.name))
        if not response.outcome.is_answer:
            verdict.fail(f"lookup {response.path}: {response.outcome.name}")
            continue
        expected = homes.get(response.path)
        if response.home_id != expected:
            verdict.fail(
                f"lookup {response.path}: home {response.home_id}, oracle {expected}"
            )
            if response.from_cache:
                system.stale_reads += 1


class _LookupWorkload(Workload):
    """Shared shape of the two lookup-only gateway workloads."""

    required = (
        "gateway",
        "gateway.admission",
        "gateway.cache",
        "gateway.hotspot",
        "gateway.coalesce",
        "core.query",
        "bloom.probe",
    )
    absent = ("net.tcp.request", "gateway.writeback", "core.mutate")
    op_unit = "lookup"

    def build(self, inputs: Dict[str, Any], seed: int, workdir) -> Gateway:
        cluster, placement = build_fleet(seed, inputs["paths"])
        client = MetadataClient(cluster, gateway_config())
        system = Gateway(cluster, client, placement)
        self._lookup(system, inputs["prefill"])
        return system

    def warm_up(self, system: Gateway, inputs: Dict[str, Any]) -> None:
        self._lookup(system, inputs["warmup"])

    @staticmethod
    def _lookup(system: Gateway, ticks: List[List[Tuple[str, str]]]) -> None:
        for tick in ticks:
            system.client.lookup_tick(tick, system.now)
            system.now += len(tick) / LOOKUPS_PER_VIRTUAL_S

    def timed(self, system: Gateway, inputs: Dict[str, Any]) -> Timed:
        lookup_tick = system.client.lookup_tick
        latencies: List[float] = []
        results: List[Any] = []
        clock = time.perf_counter
        now = system.now
        ops = 0
        cpu = CpuMarks(len(inputs["ticks"]))
        begin = clock()
        for index, tick in enumerate(inputs["ticks"]):
            start = clock()
            responses = lookup_tick(tick, now)
            latencies.append(clock() - start)
            results.append(responses)
            ops += len(tick)
            now += len(tick) / LOOKUPS_PER_VIRTUAL_S
            cpu.after_call(index)
        wall = clock() - begin
        system.now = now
        return Timed(latencies, results, ops, wall, cpu.chunks())

    def check(self, system: Gateway, inputs: Dict[str, Any], timed: Timed) -> Verdict:
        verdict = Verdict()
        for tick, responses in zip(inputs["ticks"], timed.results):
            check_tick(
                verdict, system, [path for _, path in tick], responses, system.placement
            )
        return verdict

    def counters(self, system: Gateway) -> Dict[str, float]:
        return gateway_counters(system)

    def gauges(self, system: Gateway) -> Dict[str, float]:
        return gateway_gauges(system)


class GatewayHotLookup(_LookupWorkload):
    name = "gw_hot_lookup"
    why = (
        "Zipf ticks whose working set fits the lease cache (hit rate ~0.95, "
        "5 s leases expire and revalidate): admission, cache get, hotspot "
        "sketch and coalescer do nearly all the work, core little"
    )
    required = _LookupWorkload.required + ("core.verify_batch",)

    TICKS_PER_SECOND = 2_900
    #: Ticks before the first execution, so that the lease cache holds the
    #: hot set and the first leases have expired (part of set-up).
    PREFILL_SHARE = 0.6
    WARMUP_SHARE = 0.2

    def generate(self, seed: int, seconds: float) -> Dict[str, Any]:
        generator = hp_generator(seed)
        timed = scaled(self.TICKS_PER_SECOND, seconds, minimum=20)
        prefill = int(timed * self.PREFILL_SHARE)
        warmup = int(timed * self.WARMUP_SHARE)
        lookups = zipf_lookups(generator, (prefill + warmup + timed) * TICK)
        ticks = [
            as_tick(lookups[index : index + TICK])
            for index in range(0, len(lookups), TICK)
        ]
        return {
            "paths": generator.paths,
            "prefill": ticks[:prefill],
            "warmup": ticks[prefill : prefill + warmup],
            "ticks": ticks[prefill + warmup :],
        }


class GatewayColdScan(_LookupWorkload):
    name = "gw_cold_scan"
    why = (
        "uniform ticks over all 20 000 files plus 10 % never-created paths "
        "(working set 5x the lease cache): cache install/evict, negative "
        "leases and the backend walk dominate - the pair to gw_hot_lookup"
    )

    #: Two concurrent clients, not eight: a lookup costs ~0.7 ms here, and
    #: an execution has to time >= 1 000 calls for its p99 to rest on ten
    #: samples while nine executions fit in a run.  Not one: the cost of a
    #: single lookup has several modes (lease hit, L2, L3, negative), and
    #: which of them holds the median changes from seed to seed.
    CLIENTS = 2
    TICKS_PER_SECOND = 1_510
    #: The cache fills after ~4 500 lookups and the hotspot sketch has
    #: pinned every entry after ~7 000; only then is the per-lookup cost
    #: level (~0.75 ms, up from ~0.11 ms).  Reaching that state is set-up.
    PREFILL_TICKS = 3_700
    WARMUP_SHARE = 0.1
    MISSING_SHARE = 0.10

    def generate(self, seed: int, seconds: float) -> Dict[str, Any]:
        generator = hp_generator(seed)
        paths = generator.paths
        timed = scaled(self.TICKS_PER_SECOND, seconds, minimum=20)
        warmup = int(timed * self.WARMUP_SHARE)
        # A quick run (seconds << nominal) prefills in proportion.
        prefill = min(self.PREFILL_TICKS, timed * 6)
        rng = new_rng(seed, self.name)

        def draw() -> str:
            if rng.random() < self.MISSING_SHARE:
                return f"/nx/d{rng.randrange(1000)}/f{rng.randrange(10**9)}"
            return paths[rng.randrange(len(paths))]

        ticks = [
            as_tick([draw() for _ in range(self.CLIENTS)])
            for _ in range(prefill + warmup + timed)
        ]
        return {
            "paths": paths,
            "prefill": ticks[:prefill],
            "warmup": ticks[prefill : prefill + warmup],
            "ticks": ticks[prefill + warmup :],
        }


class GatewayWriteMix(Workload):
    name = "gw_write_mix"
    why = (
        "creates, deletes and renames beside reads through a write-back "
        "gateway: mutation buffer, apply_mutation_batch arbitration and "
        "lease invalidation - guards the deletion pass over gateway/"
    )
    required = (
        "gateway",
        "gateway.cache",
        "gateway.writeback",
        "core.apply_mutation_batch",
        "core.mutate",
        "core.query",
    )
    absent = ("net.tcp.request", "core.reconfig")
    op_unit = "mutation or looked-up path"

    CALLS_PER_SECOND = 5_000
    WARMUP_TICKS_SHARE = 0.2
    #: Renames are 0.25 % (ISSUE 11 says 2 %).  At 2 % the 99th percentile
    #: is the median ``rename_subtree`` (a ~6 ms scan of 20 000 strings on
    #: every server): ``fleet_churn``'s p99 already reads that, and it is the
    #: call a neighbour's cache traffic moves most (28 % spread on a night on
    #: which ``call_p50_us`` spread 2 %).  At 0.25 % the renames lie well
    #: beyond the percentile, which then reads the ticks that walk to the
    #: backend.
    MIX = {"c": 0.25, "d": 0.20, "r": 0.0025, "t": 0.5475}
    ZIPF_PER_TICK = 4
    #: Virtual seconds per client call (1 000 calls/s offered).
    CALL_DT_S = 0.001

    def generate(self, seed: int, seconds: float) -> Dict[str, Any]:
        generator = hp_generator(seed)
        paths = generator.paths
        count = scaled(self.CALLS_PER_SECOND, seconds, minimum=100)
        warmup = int(count * self.WARMUP_TICKS_SHARE)
        lookups = iter(
            zipf_lookups(generator, warmup * TICK + count * (self.ZIPF_PER_TICK + 1))
        )
        warmup_ticks = [as_tick([next(lookups) for _ in range(TICK)]) for _ in range(warmup)]
        rng = new_rng(seed, self.name)
        churn = NamespaceChurn(paths, rng, "wb")
        newest: Optional[str] = None
        ops: List[list] = []
        for kind in shuffled_kinds(rng, count, self.MIX):
            if kind == "c":
                newest = churn.create(next(lookups))
                ops.append(["c", newest, rng.randrange(SERVERS)])
            elif kind == "d":
                ops.append(["d", churn.victim()])
            elif kind == "r":
                ops.append(["r", *churn.rename()])
            else:
                tick = [next(lookups) for _ in range(self.ZIPF_PER_TICK)]
                # Read-your-write of the newest created path (it may
                # have been deleted since: then the answer is "absent").
                tick.append(newest if newest is not None else next(lookups))
                ops.append(["t", as_tick(tick)])
        return {"paths": paths, "warmup": warmup_ticks, "ops": ops}

    def build(self, inputs: Dict[str, Any], seed: int, workdir) -> Gateway:
        cluster, placement = build_fleet(seed, inputs["paths"])
        client = MetadataClient(cluster, gateway_config(writeback=True))
        return Gateway(cluster, client, placement)

    def warm_up(self, system: Gateway, inputs: Dict[str, Any]) -> None:
        for tick in inputs["warmup"]:
            system.client.lookup_tick(tick, system.now)
            system.now += TICK_DT_S

    def timed(self, system: Gateway, inputs: Dict[str, Any]) -> Timed:
        client = system.client
        latencies: List[float] = []
        results: List[Any] = []
        clock = time.perf_counter
        now = system.now
        ops = 0
        calls = {"t": client.lookup_tick, "d": client.delete, "r": client.rename}
        cpu = CpuMarks(len(inputs["ops"]))
        begin = clock()
        for index, op in enumerate(inputs["ops"]):
            kind = op[0]
            if kind == "c":
                start = clock()
                result = client.create(op[1], now, home_id=op[2])
            else:
                call, args = calls[kind], op[1:]
                start = clock()
                result = call(*args, now)
            latencies.append(clock() - start)
            results.append(result)
            if kind == "t":
                ops += len(op[1])
            else:
                ops += 1
                system.mutations += 1
            now += self.CALL_DT_S
            cpu.after_call(index)
        start = clock()
        report = client.flush_barrier(now)
        latencies.append(clock() - start)
        results.append(report)
        wall = clock() - begin
        system.now = now
        return Timed(latencies, results, ops, wall, cpu.chunks())

    def check(self, system: Gateway, inputs: Dict[str, Any], timed: Timed) -> Verdict:
        verdict = Verdict()
        homes: Dict[str, Optional[int]] = dict(system.placement)
        for op, result in zip(inputs["ops"], timed.results):
            kind = op[0]
            if kind == "t":
                check_tick(verdict, system, [path for _, path in op[1]], result, homes)
                continue
            verdict.attempted += 1
            if kind == "c":
                if not result.outcome.is_answer or result.home_id != op[2]:
                    verdict.fail(f"create {op[1]}: {result.outcome.name} at {result.home_id}")
                homes[op[1]] = op[2]
                verdict.stream.append(("c", result.home_id, result.outcome.name))
            elif kind == "d":
                existed = homes.pop(op[1], None) is not None
                absent = result.outcome is Outcome.NEGATIVE_HIT
                if not result.outcome.is_answer or absent == existed:
                    verdict.fail(f"delete {op[1]}: {result.outcome.name}, existed={existed}")
                verdict.stream.append(("d", result.outcome.name))
            else:
                moved = replay_rename(homes, op[1], op[2])
                if result != moved:
                    verdict.fail(f"rename {op[1]}: moved {result}, oracle {moved}")
                verdict.stream.append(("r", result))
        barrier = timed.results[-1]
        verdict.attempted += 1
        if barrier.lost or barrier.deferred or len(system.client.writeback):
            verdict.fail(
                f"flush barrier left lost={len(barrier.lost)} "
                f"deferred={len(barrier.deferred)} parked={len(system.client.writeback)}"
            )
        verdict.stream.append(("barrier", barrier.batches, len(barrier.acked)))
        check_final_state(verdict, system.cluster, homes)
        return verdict

    def counters(self, system: Gateway) -> Dict[str, float]:
        return gateway_counters(system)

    def gauges(self, system: Gateway) -> Dict[str, float]:
        return gateway_gauges(system)
