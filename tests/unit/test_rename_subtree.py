"""Unit tests for GHBACluster.rename_subtree (zero-migration renames)."""

import pytest

from repro.core.query import QueryLevel


class TestRenameSubtree:
    def test_renamed_files_resolve_at_same_home(self, populated_cluster):
        cluster, placement = populated_cluster
        victims = {
            path: home
            for path, home in placement.items()
            if path.startswith("/fs/dir0/")
        }
        renamed = cluster.rename_subtree("/fs/dir0", "/fs/moved")
        assert renamed == len(victims)
        cluster.synchronize_replicas(force=True)
        for old_path, home in list(victims.items())[:15]:
            new_path = "/fs/moved" + old_path[len("/fs/dir0"):]
            result = cluster.query(new_path)
            assert result.found
            assert result.home_id == home  # zero migration

    def test_old_names_become_negative(self, populated_cluster):
        cluster, placement = populated_cluster
        old_path = next(p for p in placement if p.startswith("/fs/dir1/"))
        cluster.rename_subtree("/fs/dir1", "/fs/elsewhere")
        result = cluster.query(old_path)
        assert not result.found

    def test_exact_prefix_only(self, populated_cluster):
        """'/fs/dir2' rename must not touch '/fs/dir20'-style siblings."""
        cluster, _ = populated_cluster
        from repro.metadata.attributes import FileMetadata

        cluster.insert_file(
            FileMetadata(path="/fs/dir2x/keep", inode=90001), home_id=0
        )
        cluster.synchronize_replicas(force=True)
        cluster.rename_subtree("/fs/dir2", "/fs/renamed2")
        assert cluster.home_of("/fs/dir2x/keep") == 0

    def test_noop_rename(self, populated_cluster):
        cluster, _ = populated_cluster
        assert cluster.rename_subtree("/fs/dir3", "/fs/dir3") == 0

    def test_rename_nothing_matches(self, populated_cluster):
        cluster, _ = populated_cluster
        assert cluster.rename_subtree("/no/such/prefix", "/other") == 0

    def test_relative_prefixes_rejected(self, populated_cluster):
        cluster, _ = populated_cluster
        with pytest.raises(ValueError):
            cluster.rename_subtree("fs/dir0", "/x")
        with pytest.raises(ValueError):
            cluster.rename_subtree("/fs/dir0", "x")

    def test_lru_entries_for_old_names_invalidated(self, populated_cluster):
        cluster, placement = populated_cluster
        old_path = next(p for p in placement if p.startswith("/fs/dir4/"))
        origin = cluster.server_ids()[0]
        cluster.query(old_path, origin_id=origin)  # warms the origin's LRU
        cluster.rename_subtree("/fs/dir4", "/fs/newdir4")
        # The stale hot entry must not cause an L1 false forward to a
        # "found" answer for the dead name.
        result = cluster.query(old_path, origin_id=origin)
        assert not result.found

    def test_invariants_hold_after_rename(self, populated_cluster):
        cluster, _ = populated_cluster
        cluster.rename_subtree("/fs/dir5", "/fs/dir5_new")
        cluster.check_invariants()


def _meta(path, inode=1):
    from repro.metadata.attributes import FileMetadata

    return FileMetadata(path=path, inode=inode)


class TestRenameByteAccounting:
    """A record's size includes its path, so a rename moves the home's
    metadata footprint (ISSUE 16: the re-key used to skip the accounting
    and a later delete drove the footprint below zero)."""

    def test_rename_to_longer_name_then_delete_all(self, small_cluster):
        cluster = small_cluster
        for index in range(20):
            cluster.insert_file(_meta(f"/a/f{index}", index))
        assert cluster.rename_subtree("/a", "/a_much_longer_directory_name") == 20
        cluster.check_invariants()
        for index in range(20):
            # Raised "bytes_used must be non-negative" before the fix.
            assert cluster.delete_file(
                f"/a_much_longer_directory_name/f{index}"
            ) is not None
        assert all(s._metadata_bytes == 0 for s in cluster.servers.values())
        cluster.check_invariants()

    def test_footprint_follows_the_names(self, small_cluster):
        cluster = small_cluster
        server = cluster.servers[0]
        cluster.insert_file(_meta("/dir/a"), home_id=0)
        cluster.insert_file(_meta("/dir/b"), home_id=0)
        before = server.footprint_bytes
        cluster.rename_subtree("/dir", "/dir.mv")
        assert server.footprint_bytes == before + 2 * 3
        cluster.rename_subtree("/dir.mv", "/d")
        assert server.footprint_bytes == before - 2 * 2

    def test_overwritten_record_releases_its_bytes(self, small_cluster):
        cluster = small_cluster
        server = cluster.servers[0]
        cluster.insert_file(_meta("/old/f", 1), home_id=0)
        cluster.insert_file(_meta("/new/f", 2), home_id=0)
        assert cluster.rename_subtree("/old", "/new") == 1
        assert server.file_count == 1
        assert server.store.get("/new/f").inode == 1
        assert server._metadata_bytes == _meta("/new/f").size_bytes()
        cluster.check_invariants()

    def test_invariant_catches_a_drifted_count(self, small_cluster):
        from repro.core.group import GroupError

        small_cluster.insert_file(_meta("/x"), home_id=0)
        small_cluster.servers[0]._metadata_bytes += 3
        with pytest.raises(GroupError, match="metadata bytes"):
            small_cluster.check_invariants()


class TestRekeyOrder:
    """Victims are re-keyed in sorted path order, whatever the store's
    recency order was (DESIGN.md "What a mutation touches")."""

    def test_renamed_records_land_at_the_mru_end_sorted(self, small_cluster):
        cluster = small_cluster
        for name in ("c", "a", "b"):
            cluster.insert_file(_meta(f"/d/{name}"), home_id=0)
        cluster.insert_file(_meta("/keep"), home_id=0)
        cluster.servers[0].store.get("/d/a")  # recency: c, b, keep, a
        cluster.rename_subtree("/d", "/e")
        assert list(cluster.servers[0].store.paths()) == [
            "/keep", "/e/a", "/e/b", "/e/c",
        ]

    def test_rename_into_own_subtree_is_decided_by_that_order(self, small_cluster):
        """``/a → /a/b`` has victims that are also targets; sorted order
        reaches ``/a/b/x`` (moved out of the way to ``/a/b/b/x``) before
        ``/a/x`` takes its name, so nothing is overwritten here — and
        ``/a/a`` before ``/a/b/a``, which is."""
        cluster = small_cluster
        for inode, path in enumerate(("/a/x", "/a/b/x", "/a/a", "/a/b/a")):
            cluster.insert_file(_meta(path, inode), home_id=0)
        assert cluster.rename_subtree("/a", "/a/b") == 4
        store = cluster.servers[0].store
        assert {m.path: m.inode for m in store.records()} == {
            "/a/b/x": 0, "/a/b/b/x": 1, "/a/b/b/a": 2,
        }
        cluster.check_invariants()
