"""Property tests: a write-back batch history acks alike on both stacks.

Seeded scripts on ``tests._harness``.  Each seed draws a history of
``MUTATE_BATCH`` flushes, every mutation sent to its path's one home:
creates, deletes (of stored and of absent paths), re-sends of an earlier
batch, cumulative acks that raise an origin's floor, and a checkpoint of
the fleet between batches (``checkpoint.snapshot`` / ``restore`` on
:class:`GHBACluster`; ``crash_node`` / ``restore_node`` of every node on
:class:`PrototypeCluster`).  The history runs through both twins, and
after every step:

- each outcome's ``(version, op, path, applied, changed, deduped)`` is
  equal on both stacks and equal to an oracle's: a first delivery
  applies (a create changes state; a delete changes it when the path is
  stored), a duplicate is acked ``changed=False, deduped=True``;
- each server's store and ``writeback_applied`` are equal on both stacks
  and to the oracle's.

Cross-home creates and ``base_version`` are left out: the node arbitrates
neither (the core's homed-elsewhere conflict and lost-race check have no
twin on the prototype yet).
"""

import random

import pytest

from repro.core import checkpoint
from repro.core.cluster import GHBACluster, PathMutation
from repro.core.config import GHBAConfig
from repro.core.server import MetadataServer
from repro.metadata.attributes import FileMetadata
from repro.prototype.cluster import PrototypeCluster

from tests._harness import check, pick, replay

SEEDS = range(24)

NUM_SERVERS = 4
ORIGINS = (1, 2)
PATHS = [f"/wb/d{i % 3}/f{i}" for i in range(24)]


def _config(seed):
    return GHBAConfig(
        max_group_size=2,
        expected_files_per_mds=64,
        lru_capacity=16,
        lru_filter_bits=256,
        seed=seed,
    )


def _generate_ops(seed, length=40):
    """Ops carry their draws, so any subsequence replays alike."""
    rng = random.Random(seed)
    ops = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.6:
            mutations = tuple(
                ("create" if rng.random() < 0.5 else "delete", rng.random())
                for _ in range(rng.randint(1, 4))
            )
            ops.append(
                ("batch", rng.choice(ORIGINS), rng.random(), mutations, rng.random())
            )
        elif roll < 0.9:
            ops.append(("resend", rng.random()))
        else:
            ops.append(("checkpoint",))
    return ops


class _Twins:
    """Both stacks, an oracle, and the history sent so far."""

    def __init__(self, seed, proto):
        self.core = GHBACluster(NUM_SERVERS, _config(seed), seed=seed)
        self.proto = proto
        ids = self.core.server_ids()
        assert ids == proto.node_ids()
        self.home = {path: ids[index % len(ids)] for index, path in enumerate(PATHS)}
        self.versions = dict.fromkeys(ORIGINS, 0)
        self.sent = []  # (home, origin, acked, mutations), in send order
        self.delivered = set()  # (origin, version) applied once
        self.stored = {}  # path -> inode, the oracle's namespace
        self.applied = dict.fromkeys(ids, 0)

    def new_batch(self, origin, home_draw, mutations, ack_draw):
        home = pick(set(self.home.values()), home_draw)
        mine = [path for path, at in self.home.items() if at == home]
        acked = int(ack_draw * (self.versions[origin] + 1))
        batch = []
        for op, path_draw in mutations:
            self.versions[origin] += 1
            version = self.versions[origin]
            path = pick(mine, path_draw)
            record = FileMetadata(path=path, inode=version) if op == "create" else None
            batch.append((version, op, path, record))
        self.sent.append((home, origin, acked, batch))
        return self.send(len(self.sent) - 1)

    def send(self, index):
        home, origin, acked, batch = self.sent[index]
        expected = []
        for version, op, path, record in batch:
            if (origin, version) in self.delivered:
                expected.append((version, op, path, True, False, True))
                continue
            self.delivered.add((origin, version))
            changed = op == "create" or path in self.stored
            if op == "create":
                self.stored[path] = record.inode
            else:
                self.stored.pop(path, None)
            self.applied[home] += changed
            expected.append((version, op, path, True, changed, False))
        core = self.core.apply_mutation_batch(
            home,
            [PathMutation(*mutation) for mutation in batch],
            origin=origin,
            acked_version=acked,
        )
        proto = self.proto.apply_mutation_batch(
            home,
            [
                {"version": version, "op": op, "path": path, "record": record}
                for version, op, path, record in batch
            ],
            origin=origin,
            acked_version=acked,
        )
        core_acks = [
            (o.version, o.op, o.path, o.applied, o.changed, o.deduped)
            for o in core.outcomes
        ]
        proto_acks = [
            (o["version"], o["op"], o["path"], o["applied"], o["changed"], o["deduped"])
            for o in proto["outcomes"]
        ]
        if core_acks != expected or proto_acks != expected:
            return f"acks: core {core_acks}, prototype {proto_acks}, oracle {expected}"
        return self.compare()

    def checkpoint(self):
        self.core = checkpoint.restore(checkpoint.snapshot(self.core))
        for node_id in self.proto.node_ids():
            self.proto.crash_node(node_id)
            self.proto.restore_node(node_id)
        # Neither checkpoint keeps the applied counter.
        self.applied = dict.fromkeys(self.applied, 0)
        return self.compare()

    def compare(self):
        for server_id in self.core.server_ids():
            core = self.core.servers[server_id]
            proto = self.proto.nodes[server_id].server
            oracle = sorted(
                (path, inode)
                for path, inode in self.stored.items()
                if self.home[path] == server_id
            )
            stores = [
                sorted((meta.path, meta.inode) for meta in server.store.records())
                for server in (core, proto)
            ]
            if stores != [oracle, oracle]:
                return f"server {server_id} stores: {stores}, oracle {oracle}"
            counts = [core.writeback_applied, proto.writeback_applied]
            if counts != [self.applied[server_id]] * 2:
                return f"server {server_id} applied {counts}, oracle {self.applied[server_id]}"
        return None


def _run(seed, ops):
    with PrototypeCluster(NUM_SERVERS, _config(seed), seed=seed) as proto:
        twins = _Twins(seed, proto)

        def step(op):
            kind = op[0]
            if kind == "batch":
                return twins.new_batch(*op[1:])
            if kind == "resend":
                if not twins.sent:
                    return None
                return twins.send(pick(range(len(twins.sent)), op[1]))
            return twins.checkpoint()

        return replay(ops, step)


@pytest.mark.parametrize("seed", SEEDS)
def test_both_stacks_ack_a_batch_history_alike(seed):
    check(seed, _generate_ops(seed), lambda ops: _run(seed, ops))


def test_the_histories_reach_every_kind_of_ack(monkeypatch):
    """The scripts re-send live and settled versions, delete absent paths
    and checkpoint between batches."""
    seen = set()
    original = MetadataServer.apply_mutations

    def spy(self, origin, acked, mutations, latency_ms, commit=None):
        outcomes, latency = original(self, origin, acked, mutations, latency_ms, commit)
        floor = self.writeback_floor[origin]
        for outcome in outcomes:
            if outcome["deduped"]:
                seen.add("settled" if outcome["version"] <= floor else "cached")
            elif outcome["op"] == "delete" and not outcome["changed"]:
                seen.add("absent delete")
        return outcomes, latency

    monkeypatch.setattr(MetadataServer, "apply_mutations", spy)
    for seed in SEEDS:
        _run(seed, _generate_ops(seed))
    assert seen == {"settled", "cached", "absent delete"}
    assert any(("checkpoint",) in _generate_ops(seed) for seed in SEEDS)


def test_a_replay_that_keeps_the_cached_change_is_caught(monkeypatch):
    """A duplicate acked with its first delivery's ``changed`` (what the
    node did before the two stacks shared one loop) fails some seed."""
    original = MetadataServer.apply_mutations

    def mutant(self, origin, acked, mutations, latency_ms, commit=None):
        outcomes, latency = original(self, origin, acked, mutations, latency_ms, commit)
        cache = self.writeback_outcomes[origin]
        for outcome in outcomes:
            if outcome["deduped"] and outcome["version"] in cache:
                outcome["changed"] = cache[outcome["version"]]["changed"]
        return outcomes, latency

    monkeypatch.setattr(MetadataServer, "apply_mutations", mutant)
    assert any(_run(seed, _generate_ops(seed)) is not None for seed in SEEDS)
