"""Property tests: the gateway's kept bookkeeping equals what a scan finds.

Two structures answer per-tick questions from state they keep instead of
walking what they hold, and this suite holds each to the full scan it
replaced:

- ``MutationBuffer._oldest`` — each home's earliest pending
  ``enqueued_at`` — after every step of seeded write-back scripts
  (enqueue, same-path absorb, a flush that fails at a silenced home and
  re-parks its batch, the backoff window that follows, a rename's
  ``drain_paths`` barrier, clock steps), it must equal the ``min`` over
  the home's bucket; and every ``maybe_flush`` call, explicit or tripped
  by an enqueue, must flush exactly the homes that the per-home scan
  rule picks from ``_by_home`` just before the call;
- ``SpaceSavingSketch._heap`` over a 20 000-observation stream mixing
  Zipf and uniform phases: one pair per monitored key (so the heap never
  outgrows the counter budget), no pair above its key's count, and every
  eviction victim the smallest ``(count, key)`` of the table.

Seeded scripts on ``tests._harness``: every op
carries its own randomness and the clock is the sum of the ``step`` ops
replayed, so any subsequence replays deterministically.
"""

import random
from collections import Counter

import pytest

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.faults import FaultPlan, PlanFaultInjector
from repro.gateway import GatewayConfig, MetadataClient
from repro.gateway.hotspot import SpaceSavingSketch

from tests._harness import check, replay

SEEDS = range(24)

NUM_SERVERS = 5
FLUSH_MAX_PENDING = 4
FLUSH_AGE_S = 0.25
PATHS = [f"/t/d{d}/f{f}" for d in range(4) for f in range(10)]


def _generate_ops(seed, length=150):
    rng = random.Random(seed)
    ops = []
    renamed = 0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.40:
            ops.append(("create", rng.choice(PATHS), rng.randrange(NUM_SERVERS)))
        elif roll < 0.52:
            ops.append(("delete", rng.choice(PATHS)))
        elif roll < 0.64:
            ops.append(("tick",))
        elif roll < 0.82:
            ops.append(("step", rng.choice((0.0, 0.02, 0.05, 0.1, 0.2, 0.6))))
        elif roll < 0.88:
            ops.append(("silence", rng.randrange(NUM_SERVERS)))
        elif roll < 0.94:
            ops.append(("restore", rng.randrange(NUM_SERVERS)))
        else:
            renamed += 1
            ops.append(("rename", f"/t/d{rng.randrange(4)}", f"/t/r{renamed}"))
    return ops


def _expected_flush(client, now):
    """The homes a full scan of the buckets would flush at ``now``."""
    buffer = client.writeback
    chosen = set()
    for home_id, bucket in buffer._by_home.items():
        if client._wb_backoff.get(home_id, 0.0) > now:
            continue
        oldest = min(m.enqueued_at for m in bucket.values())
        if (
            len(bucket) >= FLUSH_MAX_PENDING
            or max(0.0, now - oldest) >= FLUSH_AGE_S
        ):
            chosen.add(home_id)
    return chosen


def _kept_oldest_mismatch(buffer):
    scanned = {
        home_id: min(m.enqueued_at for m in bucket.values())
        for home_id, bucket in buffer._by_home.items()
        if bucket
    }
    if buffer._oldest != scanned:
        return f"kept oldest {buffer._oldest} != scanned {scanned}"
    return None


def _run(seed, ops):
    """Replay ``ops``; return (first failure or None, coverage tally)."""
    injector = PlanFaultInjector(FaultPlan(seed=seed))
    cluster = GHBACluster(
        NUM_SERVERS,
        GHBAConfig(
            max_group_size=4,
            expected_files_per_mds=200,
            lru_capacity=128,
            lru_filter_bits=1 << 10,
            seed=seed,
        ),
        seed=seed,
        faults=injector,
    )
    cluster.populate(PATHS[::3])
    cluster.synchronize_replicas(force=True)
    client = MetadataClient(
        cluster,
        GatewayConfig(
            rate_per_s=1e6,
            burst=1e4,
            lease_ttl_s=30.0,
            writeback=True,
            flush_max_pending=FLUSH_MAX_PENDING,
            flush_age_s=FLUSH_AGE_S,
            writeback_seed=seed,
        ),
    )
    buffer = client.writeback
    coverage = Counter()
    failures = []
    flush = client.maybe_flush

    def checked_flush(now):
        expected = _expected_flush(client, now)
        coverage["backoff_skips"] += sum(
            client._wb_backoff.get(home, 0.0) > now for home in buffer._by_home
        )
        report = flush(now)
        flushed = {
            m.home_id
            for part in (report.acked, report.conflicts, report.deferred)
            for m in part
        }
        coverage["flushes"] += len(flushed)
        coverage["requeued"] += len(report.deferred)
        if flushed != expected and not failures:
            failures.append(f"at {now}: flushed {flushed}, scan picks {expected}")
        return report

    client.maybe_flush = checked_flush
    now = 0.0

    def step(op):
        nonlocal now
        kind = op[0]
        absorbed = buffer.absorbed
        if kind == "create":
            client.create(op[1], now, home_id=op[2])
        elif kind == "delete":
            client.delete(op[1], now)
        elif kind == "tick":
            client.maybe_flush(now)
        elif kind == "step":
            now += op[1]
        elif kind == "silence":
            injector.silence(op[1])
        elif kind == "restore":
            injector.restore(op[1])
        else:
            coverage["renames"] += any(
                buffer.paths_under(prefix) for prefix in op[1:]
            )
            client.rename(op[1], op[2], now)
        coverage["absorbs"] += buffer.absorbed - absorbed
        mismatch = _kept_oldest_mismatch(buffer)
        if mismatch is not None:
            failures.append(mismatch)
        return failures[0] if failures else None

    return replay(ops, step), coverage


@pytest.mark.parametrize("seed", SEEDS)
def test_kept_oldest_and_flush_choice_match_the_scan(seed):
    check(seed, _generate_ops(seed), lambda c: _run(seed, c)[0])


def test_scripts_reach_every_buffer_transition():
    """The seeds exercise what the kept minimum must survive: absorbs,
    failed flushes that re-park, homes skipped in backoff, and rename
    barriers that drain pending paths."""
    total = Counter()
    for seed in SEEDS:
        total.update(_run(seed, _generate_ops(seed))[1])
    for kind in ("absorbs", "flushes", "requeued", "backoff_skips", "renames"):
        assert total[kind] > 0, (kind, total)


def _observations(rng, count=20_000, universe=5_000, phase=2_500):
    """Alternating Zipf-like and uniform phases, so hot keys whose heap
    pairs went stale meet a stream of evicting newcomers."""
    for index in range(count):
        if (index // phase) % 2 == 0:
            key = min(int(rng.paretovariate(1.0)), universe)
        else:
            key = rng.randrange(universe)
        amount = 1 if rng.random() < 0.9 else rng.randint(2, 5)
        yield f"/k{key}", amount


@pytest.mark.parametrize("capacity", [1, 7, 64])
def test_sketch_heap_stays_within_budget_and_evicts_the_minimum(capacity):
    sketch = SpaceSavingSketch(capacity)
    evictions = 0
    for key, amount in _observations(random.Random(capacity)):
        counts = sketch._counts
        expected = None
        if key not in counts and len(counts) == capacity:
            expected = min(zip(counts.values(), counts))
        victim = sketch.offer(key, amount)
        assert len(sketch._heap) == len(counts) <= capacity
        if expected is None:
            assert victim is None
            continue
        evictions += 1
        assert victim == expected[1]
        assert counts[key] == expected[0] + amount
        assert sketch._errors[key] == expected[0]
        assert sorted(k for _, k in sketch._heap) == sorted(counts)
        assert all(count <= counts[k] for count, k in sketch._heap)
    assert evictions > 5_000
