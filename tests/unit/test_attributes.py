"""Unit tests for FileMetadata records."""

import pytest

from repro.metadata.attributes import FileKind, FileMetadata


class TestValidation:
    def test_requires_absolute_path(self):
        with pytest.raises(ValueError):
            FileMetadata(path="relative/path", inode=1)

    def test_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            FileMetadata(path="/x", inode=-1)
        with pytest.raises(ValueError):
            FileMetadata(path="/x", inode=1, size=-1)
        with pytest.raises(ValueError):
            FileMetadata(path="/x", inode=1, nlink=-1)


class TestPathHelpers:
    def test_name(self):
        assert FileMetadata(path="/a/b/c.txt", inode=1).name == "c.txt"

    def test_root_name(self):
        assert FileMetadata(
            path="/", inode=0, kind=FileKind.DIRECTORY
        ).name == "/"

    def test_parent_path(self):
        assert FileMetadata(path="/a/b/c", inode=1).parent_path == "/a/b"
        assert FileMetadata(path="/top", inode=1).parent_path == "/"

    def test_is_directory(self):
        assert FileMetadata(
            path="/d", inode=1, kind=FileKind.DIRECTORY
        ).is_directory
        assert not FileMetadata(path="/f", inode=1).is_directory


class TestFunctionalUpdates:
    def test_renamed(self):
        meta = FileMetadata(path="/old/f", inode=1)
        assert meta.renamed("/new/f").path == "/new/f"
        assert meta.renamed("/new/f").inode == 1
        assert meta.path == "/old/f"  # original unchanged

    def test_size_bytes_grows_with_path_length(self):
        short = FileMetadata(path="/f", inode=1)
        long = FileMetadata(path="/very/long/path/to/some/file", inode=1)
        assert long.size_bytes() > short.size_bytes()
