"""Unit tests for the hierarchical namespace."""

from dataclasses import replace

import pytest

from repro.metadata.namespace import (
    AlreadyExists,
    Namespace,
    NamespaceError,
    NotADirectory,
    PathNotFound,
    ancestor_paths,
    is_under,
    normalize_path,
    path_components,
    subtree_bounds,
)


class TestPathHelpers:
    def test_normalize(self):
        assert normalize_path("/a//b/") == "/a/b"
        assert normalize_path("/") == "/"

    def test_normalize_rejects_relative_and_dots(self):
        with pytest.raises(ValueError):
            normalize_path("a/b")
        with pytest.raises(ValueError):
            normalize_path("/a/../b")
        with pytest.raises(ValueError):
            normalize_path("/a/./b")

    def test_components(self):
        assert path_components("/a/b/c") == ["a", "b", "c"]
        assert path_components("/") == []

    def test_ancestors(self):
        assert ancestor_paths("/a/b/c") == ["/", "/a", "/a/b"]
        assert ancestor_paths("/top") == ["/"]

    def test_is_under_respects_the_component_boundary(self):
        assert is_under("/a/b", "/a/b") and is_under("/a/b/c", "/a/b")
        for sibling in ("/a/bc", "/a/b.mv", "/a/b0", "/a", "/a/b-/c"):
            assert not is_under(sibling, "/a/b")

    def test_subtree_bounds_bracket_exactly_the_descendants(self):
        low, high = subtree_bounds("/a/b")
        assert low <= "/a/b/" < "/a/b/c" < "/a/b/\U0010ffff" < high
        for outside in ("/a/b", "/a/b.mv", "/a/b-", "/a/b0", "/a/c"):
            assert not low <= outside < high


class TestCreation:
    def test_create_file_under_root(self):
        ns = Namespace()
        meta = ns.create_file("/hello.txt", size=10)
        assert ns.stat("/hello.txt") == meta
        assert len(ns) == 2  # root + file

    def test_create_requires_parent(self):
        ns = Namespace()
        with pytest.raises(PathNotFound):
            ns.create_file("/missing/file")

    def test_create_rejects_duplicates(self):
        ns = Namespace()
        ns.create_file("/f")
        with pytest.raises(AlreadyExists):
            ns.create_file("/f")

    def test_create_under_file_rejected(self):
        ns = Namespace()
        ns.create_file("/f")
        with pytest.raises(NotADirectory):
            ns.create_file("/f/child")

    def test_makedirs(self):
        ns = Namespace()
        ns.makedirs("/a/b/c")
        assert ns.stat("/a/b/c").is_directory
        assert ns.stat("/a").is_directory

    def test_makedirs_idempotent(self):
        ns = Namespace()
        ns.makedirs("/a/b")
        ns.makedirs("/a/b")
        assert len(ns) == 3

    def test_makedirs_through_file_rejected(self):
        ns = Namespace()
        ns.create_file("/f")
        with pytest.raises(NotADirectory):
            ns.makedirs("/f/sub")

    def test_ensure_file_creates_ancestors(self):
        ns = Namespace()
        meta = ns.ensure_file("/deep/tree/file.c")
        assert meta.path == "/deep/tree/file.c"
        assert ns.stat("/deep/tree").is_directory

    def test_inodes_unique_and_increasing(self):
        ns = Namespace()
        a = ns.create_file("/a")
        b = ns.create_file("/b")
        assert a.inode != b.inode


class TestListingAndWalk:
    def test_walk_yields_whole_subtree(self):
        ns = Namespace()
        ns.ensure_file("/a/b/f1")
        ns.ensure_file("/a/c/f2")
        ns.ensure_file("/z/f3")
        paths = {meta.path for meta in ns.walk()}
        assert paths == {
            "/", "/a", "/a/b", "/a/b/f1", "/a/c", "/a/c/f2", "/z", "/z/f3"
        }

    def test_files_yields_only_regular(self):
        ns = Namespace()
        ns.ensure_file("/a/f")
        assert {m.path for m in ns.files()} == {"/a/f"}


class TestRemoval:
    def test_remove_file(self):
        ns = Namespace()
        ns.create_file("/f")
        assert ns.remove("/f") == 1
        assert not ns.exists("/f")

    def test_remove_takes_the_subtree(self):
        ns = Namespace()
        ns.ensure_file("/d/f")
        assert ns.remove("/d") == 2
        assert not ns.exists("/d")

    def test_remove_root_rejected(self):
        with pytest.raises(NamespaceError):
            Namespace().remove("/")

    def test_remove_missing_raises(self):
        with pytest.raises(PathNotFound):
            Namespace().remove("/ghost")

    def test_count_tracks_removal(self):
        ns = Namespace()
        ns.ensure_file("/a/b/c")
        before = len(ns)
        ns.remove("/a")
        assert len(ns) == before - 3


class TestRename:
    def test_rename_file(self):
        ns = Namespace()
        ns.create_file("/old")
        assert ns.rename("/old", "/new") == 1
        assert ns.exists("/new") and not ns.exists("/old")

    def test_rename_updates_descendant_paths(self):
        """The operation that makes pathname hashing expensive."""
        ns = Namespace()
        ns.ensure_file("/proj/src/a.c")
        ns.ensure_file("/proj/src/b.c")
        moved = ns.rename("/proj", "/archive")
        assert moved == 4  # /proj, /proj/src, a.c, b.c
        assert ns.stat("/archive/src/a.c").path == "/archive/src/a.c"
        assert not ns.exists("/proj")

    def test_rename_into_own_subtree_rejected(self):
        ns = Namespace()
        ns.makedirs("/a/b")
        with pytest.raises(NamespaceError):
            ns.rename("/a", "/a/b/c")

    def test_rename_over_existing_rejected(self):
        ns = Namespace()
        ns.create_file("/a")
        ns.create_file("/b")
        with pytest.raises(AlreadyExists):
            ns.rename("/a", "/b")

    def test_rename_preserves_inode(self):
        ns = Namespace()
        original = ns.create_file("/a")
        ns.rename("/a", "/b")
        assert ns.stat("/b").inode == original.inode

    def test_rename_to_same_path_is_noop(self):
        ns = Namespace()
        ns.create_file("/a")
        assert ns.rename("/a", "/a") == 0

    def test_rename_root_rejected(self):
        with pytest.raises(NamespaceError):
            Namespace().rename("/", "/x")


class TestSymlinks:
    def test_symlink_metadata_validation(self):
        from repro.metadata.attributes import FileKind, FileMetadata

        with pytest.raises(ValueError):
            FileMetadata(path="/s", inode=1, kind=FileKind.SYMLINK)
        with pytest.raises(ValueError):
            FileMetadata(path="/f", inode=1, symlink_target="/x")


class TestUpdate:
    def test_update_replaces_record(self):
        ns = Namespace()
        meta = ns.create_file("/f")
        ns.update("/f", replace(meta, size=42))
        assert ns.stat("/f").size == 42

    def test_update_path_mismatch_rejected(self):
        ns = Namespace()
        meta = ns.create_file("/f")
        with pytest.raises(ValueError):
            ns.update("/f", meta.renamed("/other"))

