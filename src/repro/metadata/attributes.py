"""Inode-like file metadata records.

The traces the paper replays (HP / INS / RES) consist of metadata operations
— ``open``, ``close``, ``stat`` and friends — against files identified by
pathname.  :class:`FileMetadata` is the record a home MDS stores per file and
ships back to clients on a successful lookup.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FileKind(enum.Enum):
    """POSIX-style object kinds relevant to metadata management."""

    REGULAR = "regular"
    DIRECTORY = "directory"
    SYMLINK = "symlink"


@dataclass(frozen=True)
class FileMetadata:
    """An immutable inode-like metadata record.

    A rename produces a new record via :meth:`renamed`, which keeps stores
    free to share records without aliasing bugs.

    Attributes
    ----------
    path:
        Absolute pathname (the lookup key in every scheme of the paper).
    inode:
        Unique inode number within the file system.
    kind:
        Object kind.
    size:
        Length in bytes.
    uid / gid:
        Owner and group IDs (trace records carry user IDs).
    mode:
        Permission bits.
    atime / mtime / ctime:
        Access / modification / change timestamps (simulated seconds).
    nlink:
        Hard link count.
    symlink_target:
        Target path for SYMLINK records ("" otherwise).
    """

    path: str
    inode: int
    kind: FileKind = FileKind.REGULAR
    size: int = 0
    uid: int = 0
    gid: int = 0
    mode: int = 0o644
    atime: float = 0.0
    mtime: float = 0.0
    ctime: float = 0.0
    nlink: int = 1
    symlink_target: str = ""

    def __post_init__(self) -> None:
        if not self.path.startswith("/"):
            raise ValueError(f"path must be absolute, got {self.path!r}")
        if self.inode < 0:
            raise ValueError(f"inode must be non-negative, got {self.inode}")
        if self.size < 0:
            raise ValueError(f"size must be non-negative, got {self.size}")
        if self.nlink < 0:
            raise ValueError(f"nlink must be non-negative, got {self.nlink}")
        if self.kind is FileKind.SYMLINK and not self.symlink_target:
            raise ValueError("SYMLINK records require symlink_target")
        if self.kind is not FileKind.SYMLINK and self.symlink_target:
            raise ValueError("only SYMLINK records may carry symlink_target")

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def renamed(self, new_path: str) -> "FileMetadata":
        """Return a copy living at ``new_path`` (validated like any new
        record; the constructor, positionally, is ~2x ``dataclasses.replace``)."""
        return FileMetadata(
            new_path, self.inode, self.kind, self.size, self.uid, self.gid,
            self.mode, self.atime, self.mtime, self.ctime, self.nlink,
            self.symlink_target,
        )

    @property
    def is_directory(self) -> bool:
        return self.kind is FileKind.DIRECTORY

    @property
    def name(self) -> str:
        """Final path component."""
        return self.path.rstrip("/").rsplit("/", 1)[-1] or "/"

    @property
    def parent_path(self) -> str:
        """Path of the containing directory ('/' for the root itself)."""
        stripped = self.path.rstrip("/")
        if not stripped:
            return "/"
        head = stripped.rsplit("/", 1)[0]
        return head or "/"

    def size_bytes(self) -> int:
        """Approximate serialized size — used by the memory model.

        A metadata record is dominated by its pathname plus a fixed struct;
        256 bytes of fixed overhead approximates a production inode + dentry.
        """
        return 256 + len(self.path)
