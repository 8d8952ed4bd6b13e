"""Metadata substrate: file attributes, namespace tree and per-MDS stores.

G-HBA answers *which MDS holds the metadata of a file*; this package provides
the metadata being managed:

- :class:`~repro.metadata.attributes.FileMetadata` — an inode-like record
  (size, timestamps, ownership, mode).
- :class:`~repro.metadata.namespace.Namespace` — a hierarchical tree of
  directories and regular files with create/delete/rename and a depth-first
  walk; the tests' oracle (no symlink following, no directory listing).
  Its module's path helpers (``normalize_path``, ``is_under``, …) are what
  the rest of ``src/`` uses.
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
