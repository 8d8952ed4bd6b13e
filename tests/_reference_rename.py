"""Frozen reference: ``GHBACluster.rename_subtree`` / ``rename_subtree_at``
as they stood before ISSUE 16 took the victims from the store's sorted
path index.

The two bodies are verbatim copies of the methods (they became module
functions whose first parameter is still called ``self`` — it is the
cluster; the cluster-wide loop calls the frozen per-home half instead of
the live one).  The per-home half finds its victims with
``for path in server.store.paths()`` — a scan of every record the server
holds, in the store's *recency* order — and re-keys through
``server.store`` directly.  ``tests/property/test_rename_differential.py``
replays seeded traces through a live cluster and a twin renamed by these
functions and diffs every observable — so do not "fix" or modernize this
file; it is the oracle, like ``_reference_gateway_cache.py``.

That includes its one known defect, which ISSUE 16 fixed in the live
code: the re-key never touches ``server._metadata_bytes`` although a
record's size includes its path, so the twin's byte count drifts by
``len(new) - len(old)`` per renamed record (and goes negative, raising
in ``MemoryConsumer``, once such records are deleted).  The differential
harness repairs the twin's count after every frozen rename; it never
compares it.
"""

from __future__ import annotations

from repro.core.cluster import ChangeEvent, MutationEvent


def ref_rename_subtree(self, old_prefix: str, new_prefix: str) -> int:
    """Rename a directory subtree — with *zero* metadata migration.

    This is the operation that cripples pathname-hash placement
    (Section 1.1: "prohibitively high when an upper directory is
    renamed").  Under G-HBA the home MDS of each record is unchanged:
    every server re-keys its own matching records and adds the new
    paths to its local filter.  The old paths' bits linger in the
    filter until the next rebuild (ordinary staleness; queries for the
    old names now resolve NEGATIVE at L4), and replicas refresh through
    the usual XOR-threshold synchronization.

    Returns the number of records renamed (none of which crossed
    servers).
    """
    renamed = 0
    for server_id in self.server_ids():
        renamed += ref_rename_subtree_at(self, server_id, old_prefix, new_prefix)
    if renamed and self._mutation_listeners:
        self._notify(
            MutationEvent(
                op="rename", path=old_prefix, new_path=new_prefix
            )
        )
    return renamed


def ref_rename_subtree_at(
    self, server_id: int, old_prefix: str, new_prefix: str
) -> int:
    """Re-key one home's records under ``old_prefix`` — the per-home
    half of :meth:`rename_subtree`.

    Renames never migrate records across servers, so a cluster-wide
    rename is exactly this operation repeated per home.  The
    replication standby applies renames through it (the primary
    emits one :class:`ChangeEvent` per *affected* home), so a rename
    replays on precisely the homes it changed and cannot
    double-apply.  Returns the number of records re-keyed.
    """
    if not old_prefix.startswith("/") or not new_prefix.startswith("/"):
        raise ValueError("prefixes must be absolute paths")
    if old_prefix == new_prefix:
        return 0
    server = self.servers[server_id]
    victims = [
        path
        for path in server.store.paths()
        if path == old_prefix or path.startswith(old_prefix + "/")
    ]
    for path in victims:
        meta = server.store.get(path)
        server.store.remove(path)
        new_meta = meta.renamed(new_prefix + path[len(old_prefix):])
        server.store.put(new_meta)
        server.local_filter.add(new_meta.path)
        # Both names mutated: the old path vanished, the new one
        # appeared — a buffered mutation based on either is stale.
        self._bump_path_version(path)
        self._bump_path_version(new_meta.path)
    if victims:
        server._refresh_memory_accounting()
        # Stale LRU entries for the old names drop at every origin.
        for other in self.servers.values():
            for path in victims:
                other.lru.invalidate(path)
        if self._change_listeners:
            self._emit_change(
                ChangeEvent(
                    op="rename",
                    path=old_prefix,
                    home_id=server_id,
                    new_path=new_prefix,
                )
            )
    return len(victims)
