"""Property-based tests for the namespace tree."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metadata.namespace import Namespace, normalize_path

#: Path components drawn from a small alphabet to provoke collisions.
component = st.text(alphabet="abc", min_size=1, max_size=3)
rel_paths = st.lists(component, min_size=1, max_size=4).map(
    lambda parts: "/" + "/".join(parts)
)


class TestEnsureFileProperties:
    @given(paths=st.lists(rel_paths, max_size=25))
    def test_ensure_file_makes_every_path_resolvable(self, paths):
        ns = Namespace()
        created = []
        for path in paths:
            try:
                ns.ensure_file(path)
                created.append(path)
            except Exception:
                # A prefix may already exist as a file; that is legitimate.
                continue
        for path in created:
            assert ns.exists(path)

    @given(paths=st.lists(rel_paths, max_size=25, unique=True))
    def test_count_matches_walk(self, paths):
        ns = Namespace()
        for path in paths:
            try:
                ns.ensure_file(path)
            except Exception:
                continue
        assert len(ns) == sum(1 for _ in ns.walk())

    @given(paths=st.lists(rel_paths, max_size=20, unique=True))
    def test_inodes_unique(self, paths):
        ns = Namespace()
        for path in paths:
            try:
                ns.ensure_file(path)
            except Exception:
                continue
        inodes = [meta.inode for meta in ns.walk()]
        assert len(inodes) == len(set(inodes))


class TestRenameProperties:
    @given(
        sources=st.lists(component, min_size=1, max_size=3, unique=True),
        files_per_dir=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=50)
    def test_rename_preserves_subtree_population(self, sources, files_per_dir):
        ns = Namespace()
        directory = "/" + "/".join(sources)
        for i in range(files_per_dir):
            ns.ensure_file(f"{directory}/f{i}")
        before = len(ns)
        moved = ns.rename("/" + sources[0], "/renamed")
        assert len(ns) == before  # nothing created or lost
        assert moved >= 1 + files_per_dir if len(sources) == 1 else moved >= 1
        # Every file is reachable under the new prefix.
        suffix = "/".join(sources[1:])
        new_dir = "/renamed" + ("/" + suffix if suffix else "")
        for i in range(files_per_dir):
            assert ns.exists(f"{new_dir}/f{i}")

    @given(paths=st.lists(rel_paths, min_size=1, max_size=10, unique=True))
    def test_walk_paths_always_normalized(self, paths):
        ns = Namespace()
        for path in paths:
            try:
                ns.ensure_file(path)
            except Exception:
                continue
        for meta in ns.walk():
            assert meta.path == normalize_path(meta.path)


class TestRemoveProperties:
    @given(paths=st.lists(rel_paths, min_size=1, max_size=15, unique=True))
    def test_recursive_remove_of_root_children_empties_tree(self, paths):
        ns = Namespace()
        for path in paths:
            try:
                ns.ensure_file(path)
            except Exception:
                continue
        tops = {meta.path for meta in ns.walk() if meta.path.count("/") == 1}
        for top in tops - {"/"}:
            ns.remove(top)
        assert len(ns) == 1  # only the root remains
