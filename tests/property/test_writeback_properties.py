"""Property tests: write-back buffering vs an in-memory oracle (ISSUE 5).

Seeded scripts on ``tests._harness``: each seed generates a random mutation /
lookup / barrier sequence, replays it through a write-back gateway over a
real :class:`GHBACluster`, and maintains an **acknowledgement oracle** —
an in-memory namespace updated only when the flush engine acknowledges a
mutation (never at enqueue).  Invariants checked:

- after the final barrier the fleet's namespace equals the oracle exactly
  (acked mutations are durable, unacked ones are visible as pending);
- every overlay answer (read-your-writes) matches the buffer's pending
  intent at that instant;
- nothing is silently lost (no faults here, so zero losses expected);
- a rename is a barrier: after it nothing is pending at or under either
  prefix (the oracle alone would not see a pending write that skipped the
  barrier, since it follows the acks whenever they come).

On failure the harness shrinks the op sequence to a minimal
still-failing subsequence before asserting, so the report is actionable.
"""

import random

import pytest

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.gateway import GatewayConfig, MetadataClient, Outcome
from repro.gateway.writeback import MutationBuffer

from tests._harness import check, replay

SEEDS = range(24)

NUM_SERVERS = 5
SEED_PATHS = [f"/p/d{i % 4}/f{i}" for i in range(60)]


def _build_client(seed):
    config = GHBAConfig(
        max_group_size=4,
        expected_files_per_mds=200,
        lru_capacity=128,
        lru_filter_bits=1 << 10,
        seed=seed,
    )
    cluster = GHBACluster(NUM_SERVERS, config, seed=seed)
    cluster.populate(SEED_PATHS)
    cluster.synchronize_replicas(force=True)
    client = MetadataClient(
        cluster,
        GatewayConfig(
            rate_per_s=1e6,
            burst=1e4,
            lease_ttl_s=30.0,
            writeback=True,
            flush_max_pending=4,
            flush_age_s=0.3,
            writeback_seed=seed,
        ),
    )
    return cluster, client


def _generate_ops(seed, length=120):
    """A reproducible op list; each op carries its own timestamp so any
    subsequence replays deterministically during shrinking."""
    rng = random.Random(seed)
    pool = list(SEED_PATHS)
    ops = []
    now = 0.0
    serial = 0
    for _ in range(length):
        now += rng.random() * 0.08
        roll = rng.random()
        if roll < 0.30:
            serial += 1
            path = (
                rng.choice(pool)
                if rng.random() < 0.3
                else f"/p/new/{seed}_{serial}"
            )
            pool.append(path)
            ops.append(("create", path, now))
        elif roll < 0.55:
            ops.append(("delete", rng.choice(pool), now))
        elif roll < 0.85:
            ops.append(("lookup", rng.choice(pool), now))
        elif roll < 0.93:
            ops.append(("barrier", "", now))
        else:
            victim = rng.choice(pool)
            target = victim + ".moved"
            ops.append(("rename", (victim, target), now))
            pool.append(target)
    ops.append(("barrier", "", now + 1.0))
    return ops


def _oracle_rename(oracle, old_prefix, new_prefix):
    moved = [
        path
        for path in oracle
        if path == old_prefix or path.startswith(old_prefix + "/")
    ]
    for path in moved:
        oracle.discard(path)
        oracle.add(new_prefix + path[len(old_prefix):])


def _run(seed, ops):
    """Replay ``ops``; return a failure description or ``None``."""
    cluster, client = _build_client(seed)
    oracle = set(SEED_PATHS)
    failures = []

    def on_ack(mutation, outcome):
        if outcome is None:
            failures.append(f"unexpected loss of {mutation.path}")
            return
        if outcome.applied:
            if mutation.op == "create":
                oracle.add(mutation.path)
            else:
                oracle.discard(mutation.path)
        elif outcome.conflict:
            # The backend won the race: mirror its live state.
            if cluster.home_of(mutation.path) is None:
                oracle.discard(mutation.path)
            else:
                oracle.add(mutation.path)

    client.add_ack_listener(on_ack)

    def step(op):
        kind, arg, now = op
        if kind == "create":
            client.create(arg, now)
        elif kind == "delete":
            response = client.delete(arg, now)
            if response.outcome not in (
                Outcome.BUFFERED,
                Outcome.NEGATIVE_HIT,
            ):
                # Passthrough delete: applied synchronously, not acked.
                oracle.discard(arg)
        elif kind == "lookup":
            response = client.lookup(arg, now)
            if response.from_overlay:
                pending = client.writeback.get(arg)
                if pending is None:
                    failures.append(f"overlay answer without intent: {arg}")
                else:
                    wants = pending.op == "create"
                    has = response.record is not None
                    if wants != has:
                        failures.append(
                            f"overlay mismatch at {arg}: pending "
                            f"{pending.op} answered found={has}"
                        )
        elif kind == "barrier":
            client.flush_barrier(now)
        elif kind == "rename":
            old, new = arg
            client.rename(old, new, now)
            _oracle_rename(oracle, old, new)
            buffer = client.writeback
            for prefix in (old, new):
                if buffer.get(prefix) or buffer.paths_under(prefix):
                    failures.append(f"a write under {prefix} outlived its rename")
        return failures[0] if failures else None

    failure = replay(ops, step)
    if failure is not None:
        return failure
    if client.lost_mutations:
        return f"{len(client.lost_mutations)} mutations reported lost"
    fleet = {
        meta.path
        for server in cluster.servers.values()
        for meta in server.store.records()
    }
    if fleet != oracle:
        extra = sorted(fleet - oracle)[:3]
        missing = sorted(oracle - fleet)[:3]
        return f"fleet != oracle (extra={extra}, missing={missing})"
    return None


@pytest.mark.parametrize("seed", SEEDS)
def test_random_sequences_converge_to_oracle(seed):
    check(seed, _generate_ops(seed), lambda c: _run(seed, c))


def test_shrinker_finds_minimal_sequences():
    """The harness shrinks this suite's sequences: a synthetic failure on
    any delete reduces to that single delete (guards against a shrinker
    that silently stops shrinking and reports giant sequences)."""
    shrunk = r"\nshrunk to 1 ops: \[\('delete', .*\]\nstep 0 \('delete', "
    with pytest.raises(pytest.fail.Exception, match=shrunk):
        check(99, _generate_ops(99, length=30), lambda ops: replay(
            ops, lambda op: "synthetic" if op[0] == "delete" else None
        ))


def test_a_rename_barrier_that_skips_the_renamed_name_is_caught(monkeypatch):
    """A barrier that drains ``/a/b``'s descendants but not ``/a/b`` itself
    fails some seed."""

    def mutant(self, prefix):
        return [path for path in self._by_path if path.startswith(prefix + "/")]

    monkeypatch.setattr(MutationBuffer, "paths_under", mutant)
    assert any(_run(seed, _generate_ops(seed)) is not None for seed in SEEDS)
