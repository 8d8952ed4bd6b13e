"""Metadata substrate: file attributes, namespace tree and per-MDS stores.

G-HBA answers *which MDS holds the metadata of a file*; this package provides
the metadata being managed:

- :class:`~repro.metadata.attributes.FileMetadata` — an inode-like record
  (size, timestamps, ownership, mode).
- :class:`~repro.metadata.namespace.Namespace` — a hierarchical directory
  tree with POSIX-style path resolution, create/delete/rename.
- :class:`~repro.metadata.store.MetadataStore` — the per-MDS record store,
  in recency order with a lazy sorted path index for subtree renames.
"""

from repro.metadata.attributes import FileKind, FileMetadata
from repro.metadata.namespace import Namespace, NamespaceError, PathNotFound
from repro.metadata.store import MetadataStore

__all__ = [
    "FileKind",
    "FileMetadata",
    "Namespace",
    "NamespaceError",
    "PathNotFound",
    "MetadataStore",
]
