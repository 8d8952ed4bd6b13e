"""Availability under MDS failures (paper Section 4.5, made quantitative).

"The metadata service still remains functional when some MDSs fail, albeit
at a degraded performance and coverage level."  This experiment crashes
servers one by one (heartbeat-detected, filters excised) and measures, after
each failure:

- **coverage** — the fraction of the original namespace still resolvable,
- **correctness** — misroutes must stay at zero (a query either finds the
  true home or returns a definite negative),
- **latency** — mean lookup latency over the surviving files.

It also contrasts crash-failures with *graceful* departures (Section 3.1),
where re-homing keeps coverage at 100%.
"""

from __future__ import annotations

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.failure import HEARTBEAT_INTERVAL_S, HEARTBEAT_TIMEOUT_S, HeartbeatMonitor
from repro.experiments.common import SEED, ExperimentResult
from repro.sim.rng import make_rng

#: Surviving files probed after each failure.
SAMPLE = 300


def run(
    num_servers: int = 20,
    group_size: int = 5,
    num_files: int = 1_000,
    failures: int = 6,
    graceful: bool = False,
) -> ExperimentResult:
    """Kill (or gracefully remove) ``failures`` servers, measuring after each."""
    result = ExperimentResult(
        name="availability",
        title=(
            "Availability under "
            + ("graceful departures" if graceful else "crash failures")
        ),
        params={
            "num_servers": num_servers,
            "group_size": group_size,
            "num_files": num_files,
            "failures": failures,
            "graceful": graceful,
        },
    )
    config = GHBAConfig(
        max_group_size=group_size,
        expected_files_per_mds=max(256, int(num_files / num_servers * 4)),
        lru_capacity=128,
        lru_filter_bits=1 << 10,
        seed=SEED,
    )
    cluster = GHBACluster(num_servers, config, seed=SEED)
    placement = cluster.populate(f"/avail/d{i % 9}/f{i}" for i in range(num_files))
    cluster.synchronize_replicas(force=True)
    monitor = HeartbeatMonitor(cluster)
    clock = 0.0
    rng = make_rng(SEED ^ 0xA7)
    probe_paths = rng.sample(sorted(placement), min(SAMPLE, len(placement)))

    def measure(failed_so_far: int) -> None:
        found = 0
        misroutes = 0
        latency_sum = 0.0
        for path in probe_paths:
            outcome = cluster.query(path)
            latency_sum += outcome.latency_ms
            if outcome.found:
                found += 1
                if outcome.home_id != cluster.home_of(path):
                    misroutes += 1
        result.rows.append(
            {
                "failed_servers": failed_so_far,
                "surviving_servers": cluster.num_servers,
                "coverage": found / len(probe_paths),
                "misroutes": misroutes,
                "mean_latency_ms": latency_sum / len(probe_paths),
                "groups": cluster.num_groups,
            }
        )

    measure(0)
    for round_index in range(failures):
        victim = rng.choice(cluster.server_ids())
        if graceful:
            cluster.remove_server(victim)
            cluster.synchronize_replicas(force=True)
        else:
            monitor.crash(victim)
            clock += HEARTBEAT_TIMEOUT_S + 2 * HEARTBEAT_INTERVAL_S
            monitor.advance(clock)
            assert monitor.detected(victim)
        cluster.check_invariants()
        measure(round_index + 1)
    return result


def main() -> None:
    print(run(graceful=False).format())
    print()
    print(run(graceful=True).format())


if __name__ == "__main__":
    main()
