"""Differential property: the home MDS's store-first verify against the
filter-first order it replaced.

``MetadataServer.verify_many`` reads the store first and probes the local
filter only for the paths the store misses.  Its callers charge what the
filter-first order charged: one probe per key, a record fetch per "maybe".
This suite holds the four callers to filter-first references written out
below — the model walk's ``forward``, ``GHBACluster.verify_batch`` and the
node's ``VERIFY`` / ``VERIFY_BATCH`` handlers — on twin clusters that
Hypothesis drives through the same script: inserts, deletes (whose stale
bits make false positives), subtree renames, ``rebuild_local_filter``,
replica syncs and a checkpoint restore.  Probes name stored, deleted and
never-created paths.  Every answer and every float is compared with
``==``: the node's ``found`` and ``finish_vtime``, every
``BatchVerifyResult`` field, every ``QueryResult`` field (the walk's
level, home and false forwards among them) and the whole metrics
registry, which holds the false-forward counters.
"""

from typing import Dict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import checkpoint
from repro.core.cluster import BatchVerifyResult, GHBACluster, _ModelWalk
from repro.core.config import GHBAConfig
from repro.core.walk import walk
from repro.metadata.attributes import FileMetadata
from repro.prototype.messages import Message, MessageKind
from repro.prototype.node import MDSNode
from repro.prototype.transport import InProcessTransport

DIRS = 3
FILES = 6


# ----------------------------------------------------------------------
# Filter-first references: each site as it stood before the store-first
# verify, over the same cluster and node objects.
# ----------------------------------------------------------------------
class _FilterFirstWalk(_ModelWalk):
    __slots__ = ()

    def forward(self, target_id: int) -> bool:
        cluster, origin_id = self.cluster, self.origin_id
        traced = self.span is not None
        if self.faults.enabled and target_id != origin_id:
            reachable, _ = self.faults.filter_targets(origin_id, (target_id,))
            if not reachable:
                self.latency += self.rtt
                self.messages += 1
                self.degraded = True
                if traced:
                    self.hop("forward_timeout", target=target_id)
                return False
        cluster._server_forwards.labels(target_id).inc()
        if target_id != origin_id:
            self.latency += self.rtt
            self.messages += 2
            if traced:
                self.hop("forward", target=target_id, msg=2)
        server = cluster.servers[target_id]
        self.latency += self.mpm
        local = server.local_filter
        mask = local._hashes.mask(self.path)
        meta = None
        if (local._bits & mask) == mask:
            self.latency += server.fetch_penalty_cached(self.net)
            meta = server.store.get(self.path)
        if traced:
            self.hop("verify", target=target_id, found=meta is not None)
        if meta is None:
            cluster._server_false.labels(target_id).inc()
            if traced:
                self.hop("false_forward", target=target_id)
        return meta is not None


def _reference_query(cluster, path, origin_id):
    x = _FilterFirstWalk(cluster, path, origin_id)
    return x.finish(*walk(x))


def _reference_verify_batch(cluster, server_id, paths):
    net = cluster.config.network
    result = BatchVerifyResult(server_id=server_id)
    server = cluster._batch_target(result)
    if server is None:
        return result
    latency = result.latency_ms
    record_cost = server.fetch_penalty_cached(net)
    latency += net.memory_probe_ms * len(paths)
    results = result.results
    store_get = server.store.get
    for path, maybe in zip(paths, server.local_filter.contains_many(paths)):
        if maybe:
            latency += record_cost
            results[path] = store_get(path)
        else:
            results[path] = None
    versions = result.versions
    for path in paths:
        versions[path] = cluster._path_versions.get(path, 0)
    return cluster._batch_served(
        result,
        latency,
        "ghba_batch_verifies_total",
        "Multi-key gateway verifications served, by server.",
    )


def _reference_on_verify(node, message):
    path = message.payload["path"]
    positive = node.server.local_filter.query(path)
    finish = node._serve(message.arrival_vtime, node._verify_ms(positive))
    meta = node.server.store.get(path) if positive else None
    return message.reply(
        found=meta is not None,
        home_id=node.node_id if meta is not None else None,
        finish_vtime=finish,
    )


def _reference_on_verify_batch(node, message):
    paths = message.payload["paths"]
    service_ms = 0.0
    found: Dict[str, bool] = {}
    for path in paths:
        positive = node.server.local_filter.query(path)
        service_ms += node._verify_ms(positive)
        meta = node.server.store.get(path) if positive else None
        found[path] = meta is not None
    finish = node._serve(message.arrival_vtime, service_ms)
    return message.reply(found=found, finish_vtime=finish)


# ----------------------------------------------------------------------
# Scripts
# ----------------------------------------------------------------------
def _name(draw_dir, draw_file):
    return f"/d{draw_dir}/f{draw_file}"


stored_names = st.builds(
    _name, st.integers(0, DIRS - 1), st.integers(0, FILES - 1)
)
probe_names = st.one_of(
    stored_names, st.integers(0, 3).map(lambda index: f"/never/{index}")
)
server_index = st.integers(0, 63)
ops = st.one_of(
    st.tuples(st.just("insert"), stored_names, server_index),
    st.tuples(st.just("delete"), stored_names),
    st.tuples(
        st.just("rename"), st.integers(0, DIRS - 1), st.integers(0, DIRS - 1)
    ),
    st.tuples(st.just("rebuild"), server_index),
    st.tuples(st.just("sync")),
    st.tuples(st.just("restore")),
    st.tuples(
        st.just("probe"),
        st.lists(probe_names, min_size=1, max_size=6),
        server_index,
        st.booleans(),  # address the batch to the first path's home
        st.sampled_from((0.0, 0.25, 1.5)),  # the node's arrival vtime
    ),
)


class _Twin:
    """One side of the differential: a cluster and how it verifies."""

    def __init__(self, cluster: GHBACluster, reference: bool) -> None:
        self.cluster = cluster
        self.reference = reference

    def apply(self, op) -> None:
        cluster = self.cluster
        ids = cluster.server_ids()
        kind = op[0]
        if kind == "insert":
            _, path, index = op
            home = cluster.home_of(path)
            if home is None:
                home = ids[index % len(ids)]
            cluster.insert_file(FileMetadata(path=path, inode=index), home_id=home)
        elif kind == "delete":
            cluster.delete_file(op[1])
        elif kind == "rename":
            _, src, dst = op
            cluster.rename_subtree(f"/d{src}", f"/d{dst}")
        elif kind == "rebuild":
            cluster.servers[ids[op[1] % len(ids)]].rebuild_local_filter()
        elif kind == "sync":
            cluster.synchronize_replicas()
        elif kind == "restore":
            self.cluster = checkpoint.restore(checkpoint.snapshot(cluster))
        else:
            raise AssertionError(f"unknown op {kind!r}")

    def probe(self, op):
        """Everything the probe asks, as plain comparable values."""
        _, paths, index, at_home, arrival = op
        cluster = self.cluster
        ids = cluster.server_ids()
        target = ids[index % len(ids)]
        home = cluster.home_of(paths[0])
        if at_home and home is not None:
            target = home
        node = MDSNode(
            target, cluster.config, InProcessTransport(), cluster.servers[target]
        )
        batch = Message(
            kind=MessageKind.VERIFY_BATCH,
            sender=-1,
            payload={"paths": list(paths)},
            arrival_vtime=arrival,
        )
        if self.reference:
            verified = _reference_verify_batch(cluster, target, paths)
            replies = [_reference_on_verify_batch(node, batch)]
        else:
            verified = cluster.verify_batch(target, paths)
            replies = [node._on_verify_batch(batch)]
        queries = []
        for path in paths:
            single = Message(
                kind=MessageKind.VERIFY,
                sender=-1,
                payload={"path": path},
                arrival_vtime=arrival,
            )
            origin = ids[(index + len(queries)) % len(ids)]
            if self.reference:
                replies.append(_reference_on_verify(node, single))
                queries.append(_reference_query(cluster, path, origin))
            else:
                replies.append(node._on_verify(single))
                queries.append(cluster.query(path, origin))
        return (
            [reply.payload for reply in replies],
            vars(verified),
            [tuple(result) for result in queries],
            cluster.total_false_forwards,
            cluster.metrics.snapshot(),
        )


@given(
    servers=st.integers(1, 6),
    group_size=st.integers(1, 4),
    files_per_mds=st.sampled_from((4, 16, 64)),
    budget=st.sampled_from((None, 600, 6_000)),
    script=st.lists(ops, min_size=1, max_size=25),
    final=st.lists(probe_names, min_size=1, max_size=6),
)
@settings(max_examples=120, deadline=None)
def test_store_first_verify_equals_filter_first(
    servers, group_size, files_per_mds, budget, script, final
):
    config = GHBAConfig(
        max_group_size=group_size,
        expected_files_per_mds=files_per_mds,
        lru_capacity=8,
        lru_filter_bits=256,
        memory_budget_bytes=budget,
        seed=3,
    )
    twins = [
        _Twin(GHBACluster(servers, config, seed=5), reference)
        for reference in (False, True)
    ]
    for twin in twins:
        twin.cluster.populate(
            f"/d{d}/f{f}" for d in range(DIRS) for f in range(0, FILES, 2)
        )
        twin.cluster.synchronize_replicas(force=True)
    for op in script + [("probe", final, 0, True, 0.0)]:
        if op[0] == "probe":
            live, ref = (twin.probe(op) for twin in twins)
            assert live == ref
        else:
            for twin in twins:
                twin.apply(op)
