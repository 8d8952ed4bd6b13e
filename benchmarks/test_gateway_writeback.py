"""Gateway write-back benchmark: batched mutations, zero acknowledged loss.

The acceptance experiment for the write-back buffer (:mod:`repro.gateway.
writeback`): one seeded trace replayed twice — write-through (every
create/delete a unicast round trip) and write-back (buffered, absorbed,
flushed as ``MUTATE_BATCH``) — through identical fleets, crash windows and
create placements.  Write-back must send **at least 1.5x fewer** mutation
RPCs while the end-of-run namespace matches the acknowledgement oracle
exactly in both modes: every acknowledged mutation is durable, every loss
is explicit, and the two modes converge to the same namespace.

Runs the same scenario as ``python -m repro.gateway bench --writeback``.
"""

import pytest

from repro.gateway.scenario import ScenarioSpec
from repro.gateway.scenarios import run_writeback

SPEC = ScenarioSpec(
    servers=20,
    group_size=5,
    files=3_000,
    ops=5_000,
    clients=8,
    profile="HP",
    seed=7,
    cache_capacity=4096,
    lease_ttl_s=5.0,
    rate_per_s=2000.0,
    hot_threshold=32,
    chaos=False,
    flush_max_pending=16,
    flush_age_s=0.25,
)


@pytest.fixture(scope="module")
def writeback_stats():
    # One pair of replays shared by the whole module; deterministic
    # simulation outputs, not wall-clock timings.
    return run_writeback(SPEC).stats


def test_mutation_rpc_reduction(writeback_stats):
    """Write-back sends >= 1.5x fewer mutation RPCs than write-through."""
    back = writeback_stats["writeback"]
    through = writeback_stats["writethrough"]
    assert back["mutation_rpcs"] > 0
    assert through["mutation_rpcs"] > back["mutation_rpcs"]
    assert writeback_stats["mutation_rpc_reduction"] >= 1.5, writeback_stats


def test_zero_acknowledged_loss(writeback_stats):
    """No acked mutation vanished: fleet == oracle in both modes, and the
    two modes converge to the identical namespace despite crash windows."""
    assert writeback_stats["crash_windows"] >= 2
    assert writeback_stats["writethrough"]["oracle_divergences"] == 0
    assert writeback_stats["writeback"]["oracle_divergences"] == 0
    assert writeback_stats["mode_namespace_divergence"] == 0
    assert writeback_stats["writeback"]["lost_reported"] == 0


def test_overlay_correctness(writeback_stats):
    """Read-your-writes held: every overlay answer matched the buffer's
    pending intent, and no cache-served read went stale."""
    back = writeback_stats["writeback"]
    assert back["overlay_hits"] > 0
    assert back["overlay_mismatches"] == 0
    assert back["stale_reads"] == 0


def test_buffered_latency_beats_unicast(writeback_stats):
    """The buffered p50 mutation is a local enqueue, not a round trip."""
    back = writeback_stats["writeback"]
    through = writeback_stats["writethrough"]
    assert back["mutation_p50_ms"] < through["mutation_p50_ms"]


def test_flushes_batched(writeback_stats):
    """Flushes actually batch: fewer batches than mutations enqueued."""
    back = writeback_stats["writeback"]
    assert back["flush_batches"] > 0
    assert back["flush_batches"] < writeback_stats["mutations"]
