"""Hierarchical namespace (directory tree) with POSIX-style path operations.

Although G-HBA routes lookups by full pathname, the file system still needs a
real namespace: ``mkdir -p``, file creation, rename (the operation that makes
hash-based placement expensive — renaming an upper directory changes the hash
of every descendant), and recursive deletion.  The tree is an oracle for the
tests: it holds regular files and directories and follows no symlinks (a
``SYMLINK`` record exists only as a :class:`FileMetadata` kind the wire codec
carries).  Under ``src/`` only its path helpers are used.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.metadata.attributes import FileKind, FileMetadata


class NamespaceError(Exception):
    """Base class for namespace failures."""


class PathNotFound(NamespaceError):
    """Raised when a path does not resolve to an existing object."""


class NotADirectory(NamespaceError):
    """Raised when a non-directory appears where a directory is required."""


class AlreadyExists(NamespaceError):
    """Raised when creating an object over an existing path."""


def normalize_path(path: str) -> str:
    """Return a canonical absolute path: no trailing slash, no empty parts.

    Raises
    ------
    ValueError
        For relative paths or paths containing ``.`` / ``..`` components
        (trace paths are already canonical; resolving dots is out of scope).
    """
    if not path.startswith("/"):
        raise ValueError(f"path must be absolute, got {path!r}")
    parts = [part for part in path.split("/") if part]
    if any(part in (".", "..") for part in parts):
        raise ValueError(f"path must not contain '.' or '..': {path!r}")
    return "/" + "/".join(parts)


def path_components(path: str) -> List[str]:
    """Return the components of a normalized path ('/' → [])."""
    return [part for part in normalize_path(path).split("/") if part]


def ancestor_paths(path: str) -> List[str]:
    """Return every proper ancestor of ``path``, root first.

    ``ancestor_paths('/a/b/c')`` → ``['/', '/a', '/a/b']``.
    """
    parts = path_components(path)
    ancestors = ["/"]
    for i in range(1, len(parts)):
        ancestors.append("/" + "/".join(parts[:i]))
    return ancestors


def is_under(path: str, prefix: str) -> bool:
    """Is ``path`` the subtree root ``prefix`` itself or anything below it?

    The one prefix predicate of renames, subtree invalidation and audits:
    ``/a/b`` is under ``/a``; the siblings ``/ab`` and ``/a.mv`` are not.
    """
    return path == prefix or path.startswith(prefix + "/")


def subtree_bounds(prefix: str) -> Tuple[str, str]:
    """The half-open key range ``[low, high)`` holding exactly the paths
    strictly below ``prefix`` — :func:`is_under` minus ``prefix`` itself.

    ``"0"`` is the code point after ``"/"`` and strings order by code
    point, so a sorted path index answers a subtree with two bisections.
    """
    return prefix + "/", prefix + "0"


class _Node:
    """Internal tree node."""

    __slots__ = ("meta", "children")

    def __init__(self, meta: FileMetadata) -> None:
        self.meta = meta
        self.children: Dict[str, "_Node"] = {}


class Namespace:
    """A single-rooted tree of directories and regular files.

    The tree assigns inode numbers sequentially and keeps
    :class:`FileMetadata` per node.  All paths are normalized on entry;
    :meth:`stat` and :meth:`exists` follow no symlinks, and :meth:`walk`
    reads the tree.
    """

    def __init__(self) -> None:
        self._next_inode = 1
        self._root = _Node(
            FileMetadata(path="/", inode=0, kind=FileKind.DIRECTORY, mode=0o755)
        )
        self._count = 1

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _resolve(self, path: str) -> _Node:
        node = self._root
        for part in path_components(path):
            if not node.meta.is_directory:
                raise NotADirectory(f"{node.meta.path!r} is not a directory")
            child = node.children.get(part)
            if child is None:
                raise PathNotFound(path)
            node = child
        return node

    def exists(self, path: str) -> bool:
        try:
            self._resolve(path)
        except NamespaceError:
            return False
        return True

    def stat(self, path: str) -> FileMetadata:
        """Return the metadata record at ``path``."""
        return self._resolve(path).meta

    def __contains__(self, path: str) -> bool:
        return self.exists(path)

    def __len__(self) -> int:
        """Total number of objects including the root directory."""
        return self._count

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------
    def _create(self, path: str, kind: FileKind, **attrs: object) -> FileMetadata:
        path = normalize_path(path)
        if path == "/":
            raise AlreadyExists("/")
        parent_path, _, name = path.rpartition("/")
        parent = self._resolve(parent_path or "/")
        if not parent.meta.is_directory:
            raise NotADirectory(f"{parent.meta.path!r} is not a directory")
        if name in parent.children:
            raise AlreadyExists(path)
        meta = FileMetadata(path=path, inode=self._next_inode, kind=kind, **attrs)
        self._next_inode += 1
        parent.children[name] = _Node(meta)
        self._count += 1
        return meta

    def create_file(self, path: str, **attrs: object) -> FileMetadata:
        """Create a regular file; parent directory must exist."""
        return self._create(path, FileKind.REGULAR, **attrs)

    def makedirs(self, path: str) -> FileMetadata:
        """Create ``path`` and any missing ancestors (like ``mkdir -p``)."""
        path = normalize_path(path)
        node = self._root
        current = ""
        for part in path_components(path):
            current += "/" + part
            child = node.children.get(part)
            if child is None:
                self._create(current, FileKind.DIRECTORY)
                child = node.children[part]
            elif not child.meta.is_directory:
                raise NotADirectory(f"{current!r} is not a directory")
            node = child
        return node.meta

    def ensure_file(self, path: str, **attrs: object) -> FileMetadata:
        """Create ``path`` (and ancestors) if absent; return its metadata."""
        path = normalize_path(path)
        if self.exists(path):
            return self.stat(path)
        parent = path.rpartition("/")[0] or "/"
        self.makedirs(parent)
        return self.create_file(path, **attrs)

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def walk(self) -> Iterator[FileMetadata]:
        """Yield metadata for the root and every descendant, depth-first."""
        stack = [self._root]
        while stack:
            current = stack.pop()
            yield current.meta
            stack.extend(current.children.values())

    def files(self) -> Iterator[FileMetadata]:
        """Yield every regular file in the tree."""
        return (meta for meta in self.walk() if meta.kind is FileKind.REGULAR)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def update(self, path: str, meta: FileMetadata) -> None:
        """Replace the metadata record at ``path`` (path must match)."""
        path = normalize_path(path)
        if normalize_path(meta.path) != path:
            raise ValueError(
                f"record path {meta.path!r} does not match target {path!r}"
            )
        self._resolve(path).meta = meta

    def remove(self, path: str) -> int:
        """Remove the object at ``path``; return the number removed.

        A directory goes with its whole subtree.
        """
        path = normalize_path(path)
        if path == "/":
            raise NamespaceError("cannot remove the root directory")
        parent_path, _, name = path.rpartition("/")
        parent = self._resolve(parent_path or "/")
        node = parent.children.get(name)
        if node is None:
            raise PathNotFound(path)
        removed = sum(1 for _ in self._iter_subtree(node))
        del parent.children[name]
        self._count -= removed
        return removed

    @staticmethod
    def _iter_subtree(node: _Node) -> Iterator[_Node]:
        stack = [node]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(current.children.values())

    def rename(self, old_path: str, new_path: str) -> int:
        """Move a subtree; return the number of objects whose path changed.

        This is the operation that makes pathname-hash placement expensive
        (paper Section 1.1): every descendant's key changes.
        """
        old_path = normalize_path(old_path)
        new_path = normalize_path(new_path)
        if old_path == "/":
            raise NamespaceError("cannot rename the root directory")
        if new_path == old_path:
            return 0
        if new_path.startswith(old_path + "/"):
            raise NamespaceError(
                f"cannot move {old_path!r} into its own subtree {new_path!r}"
            )
        old_parent_path, _, old_name = old_path.rpartition("/")
        old_parent = self._resolve(old_parent_path or "/")
        node = old_parent.children.get(old_name)
        if node is None:
            raise PathNotFound(old_path)
        new_parent_path, _, new_name = new_path.rpartition("/")
        new_parent = self._resolve(new_parent_path or "/")
        if not new_parent.meta.is_directory:
            raise NotADirectory(f"{new_parent.meta.path!r} is not a directory")
        if new_name in new_parent.children:
            raise AlreadyExists(new_path)
        del old_parent.children[old_name]
        new_parent.children[new_name] = node
        moved = 0
        prefix_len = len(old_path)
        for sub in self._iter_subtree(node):
            suffix = sub.meta.path[prefix_len:]
            sub.meta = sub.meta.renamed(new_path + suffix)
            moved += 1
        return moved
