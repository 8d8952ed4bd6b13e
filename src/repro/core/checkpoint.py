"""Cluster checkpoint / restore (the recovery substrate behind Table 1).

A metadata service must survive restarts: this module serializes a
:class:`~repro.core.cluster.GHBACluster`'s durable state — configuration,
every server's metadata records and Bloom filter, the group structure and
replica placements — to a single JSON document (filter payloads are
base64), and reconstructs an equivalent cluster from it.

What is durable vs. rebuilt:

- **durable**: config, metadata records, local filters, published filters,
  group membership, replica placements (and the replica payloads).
- **rebuilt**: LRU arrays (caches warm up again), metrics, crashed-state
  tombstones — none of these affect correctness.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Dict, Union

from repro.bloom.bloom_filter import BloomFilter
from repro.core import reconfiguration
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.server import MetadataServer
from repro.metadata.attributes import FileKind, FileMetadata

PathLike = Union[str, Path]

#: Bumped on any incompatible format change.
FORMAT_VERSION = 4


class CheckpointError(ValueError):
    """A checkpoint file or document that cannot be restored.

    Raised for torn/truncated files (invalid JSON) and for format
    mismatches.  Subclasses :class:`ValueError` so pre-existing callers
    that caught the broad type keep working.
    """


def config_to_dict(config: GHBAConfig) -> Dict[str, Any]:
    """A config's fields, in declaration order, as a JSON-safe dict."""
    return {
        field.name: getattr(config, field.name)
        for field in dataclasses.fields(config)
    }


def config_from_dict(data: Any) -> GHBAConfig:
    """The config :func:`config_to_dict` wrote; a field left out keeps
    its default.  Raises :class:`CheckpointError` for anything but a
    mapping, or for a field :class:`GHBAConfig` does not have."""
    if not isinstance(data, dict):
        raise CheckpointError(
            f"config must be a JSON object, got {type(data).__name__}"
        )
    known = {field.name for field in dataclasses.fields(GHBAConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise CheckpointError(f"unknown config field(s): {', '.join(unknown)}")
    return GHBAConfig(**data)


def _encode_filter(bloom: BloomFilter) -> str:
    return base64.b64encode(bloom.to_bytes()).decode("ascii")


def _decode_filter(payload: str) -> BloomFilter:
    return BloomFilter.from_bytes(base64.b64decode(payload))


def _encode_record(meta: FileMetadata) -> Dict[str, Any]:
    return {
        "path": meta.path,
        "inode": meta.inode,
        "kind": meta.kind.value,
        "size": meta.size,
        "uid": meta.uid,
        "gid": meta.gid,
        "mode": meta.mode,
        "atime": meta.atime,
        "mtime": meta.mtime,
        "ctime": meta.ctime,
        "nlink": meta.nlink,
        "symlink_target": meta.symlink_target,
    }


def _decode_record(data: Dict[str, Any]) -> FileMetadata:
    return FileMetadata(
        path=data["path"],
        inode=data["inode"],
        kind=FileKind(data["kind"]),
        size=data["size"],
        uid=data["uid"],
        gid=data["gid"],
        mode=data["mode"],
        atime=data["atime"],
        mtime=data["mtime"],
        ctime=data["ctime"],
        nlink=data["nlink"],
        symlink_target=data.get("symlink_target", ""),
    )


def snapshot_server(server: MetadataServer) -> Dict[str, Any]:
    """Serialize one server's durable state (its "disk" contents).

    Shared by the whole-cluster :func:`snapshot` and the prototype's
    node crash/restore machinery: a crashed node's metadata, filters and
    hosted replicas survive on disk and come back via
    :func:`restore_server`.
    """
    return {
        "server_id": server.server_id,
        "records": [_encode_record(meta) for meta in server.store.records()],
        "local_filter": _encode_filter(server.local_filter),
        "published_filter": _encode_filter(server.published_filter),
        "replicas": {
            str(home_id): _encode_filter(server.segment.get_replica(home_id))
            for home_id in server.hosted_replicas()
        },
        # At-most-once write-back dedup: the per-origin cumulative-ack
        # floor plus the exact outcome cache for versions above it are
        # durable, so a node restored from this snapshot cannot re-apply
        # a retried batch it already absorbed before crashing (gateway
        # versions reach each home as a gappy subsequence, so the exact
        # cache — not a high-water mark — is the dedup record).
        "writeback_floor": {
            str(origin): floor
            for origin, floor in server.writeback_floor.items()
        },
        "writeback_outcomes": {
            str(origin): {
                str(version): dict(outcome)
                for version, outcome in outcomes.items()
            }
            for origin, outcomes in server.writeback_outcomes.items()
        },
    }


def restore_server(entry: Dict[str, Any], config: GHBAConfig) -> MetadataServer:
    """Reconstruct one server from a :func:`snapshot_server` document."""
    server = MetadataServer(entry["server_id"], config)
    _load_server(server, entry)
    _host_replicas(server, entry)
    return server


def _load_server(server: MetadataServer, entry: Dict[str, Any]) -> None:
    """Everything of ``entry`` but the replicas, into the empty ``server``."""
    server.insert_many([_decode_record(record) for record in entry["records"]])
    server.load_filters(
        _decode_filter(entry["local_filter"]),
        _decode_filter(entry["published_filter"]),
    )
    # Absent in pre-write-back checkpoints; default to a clean slate.
    server.writeback_floor = {
        int(origin): int(floor)
        for origin, floor in entry.get("writeback_floor", {}).items()
    }
    server.writeback_outcomes = {
        int(origin): {
            int(version): dict(outcome)
            for version, outcome in outcomes.items()
        }
        for origin, outcomes in entry.get("writeback_outcomes", {}).items()
    }


def _host_replicas(server: MetadataServer, entry: Dict[str, Any]) -> None:
    for home_id, payload in entry["replicas"].items():
        server.host_replica(int(home_id), _decode_filter(payload))


def snapshot(cluster: GHBACluster) -> Dict[str, Any]:
    """Serialize the cluster's durable state to a JSON-safe document."""
    servers = [
        snapshot_server(cluster.servers[server_id])
        for server_id in cluster.server_ids()
    ]
    groups = [
        {
            "group_id": group.group_id,
            "members": group.member_ids(),
            "placements": {
                str(replica_id): host
                for replica_id, host in group.idbfa.placements().items()
            },
        }
        for group in cluster.groups.values()
    ]
    return {
        "format_version": FORMAT_VERSION,
        "config": config_to_dict(cluster.config),
        "next_server_id": cluster._next_server_id,
        "next_group_id": cluster._next_group_id,
        "servers": servers,
        "groups": groups,
    }


def restore(document: Dict[str, Any]) -> GHBACluster:
    """Reconstruct a cluster from a :func:`snapshot` document."""
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    if "config" not in document:
        raise CheckpointError("checkpoint has no config")
    config = config_from_dict(document["config"])
    # Servers and groups are made the way the cluster makes its own, so
    # they count into its registry and sit in its cell index.  Every
    # published filter is in before any replica, so a copy equal to its
    # home's published filter is probed through the index.
    cluster = GHBACluster._unformed(config)
    for entry in document["servers"]:
        _load_server(cluster._new_server(entry["server_id"]), entry)
    for entry in document["servers"]:
        _host_replicas(cluster.servers[entry["server_id"]], entry)
    cluster._next_server_id = document["next_server_id"]

    for entry in document["groups"]:
        group = cluster._new_group(entry["group_id"])
        for member_id in entry["members"]:
            group.idbfa.add_member(member_id)
            group.adopt_member(cluster.servers[member_id])
            cluster._group_of[member_id] = group.group_id
        for replica_id, host in entry["placements"].items():
            group.idbfa.place(int(replica_id), host)
    cluster._next_group_id = document["next_group_id"]
    cluster.directory = reconfiguration.Directory(
        {gid: group.member_ids() for gid, group in cluster.groups.items()},
        {gid: group.idbfa.placements() for gid, group in cluster.groups.items()},
        cluster._next_group_id,
    )

    cluster.check_invariants()
    return cluster


def atomic_write_text(path: PathLike, payload: str) -> None:
    """Write ``payload`` to ``path`` atomically (temp file + rename).

    A crash mid-write must never leave a torn file at ``path``: the
    payload lands in a sibling temp file first and is moved into place
    with :func:`os.replace`, which is atomic on POSIX and Windows.  A
    reader therefore sees either the old complete file or the new one.
    """
    target = Path(path)
    tmp = target.parent / (target.name + ".tmp")
    tmp.write_text(payload, encoding="utf-8")
    os.replace(tmp, target)


def save(cluster: GHBACluster, path: PathLike) -> int:
    """Write a checkpoint file atomically; returns its size in bytes.

    A standby fleet bootstraps from these files, so a half-written
    checkpoint is a correctness hazard, not an inconvenience — hence
    :func:`atomic_write_text` rather than a plain ``write_text``.
    """
    document = snapshot(cluster)
    payload = json.dumps(document, separators=(",", ":"))
    atomic_write_text(path, payload)
    return len(payload)


def load(path: PathLike) -> GHBACluster:
    """Read a checkpoint file back into a live cluster.

    Raises :class:`CheckpointError` when the file is torn/truncated
    (invalid JSON) or carries an unsupported format version — callers
    must never half-restore from a corrupt checkpoint.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"corrupt checkpoint {path!s}: {exc}"
        ) from exc
    if not isinstance(document, dict):
        raise CheckpointError(
            f"corrupt checkpoint {path!s}: expected a JSON object, "
            f"got {type(document).__name__}"
        )
    return restore(document)
