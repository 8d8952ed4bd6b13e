"""The shared line counter's opt-in count of generated code.

Code compiled from strings (a NamedTuple's ``__new__``, a dataclass's
``__init__``) runs in ``<string>`` frames, below no root.  By default it
is not counted; ``generated=True`` counts it on its own, booked to the
package that called it, and leaves the main count as it was.
"""

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.core.query import QueryLevel, QueryResult
from repro.metadata.attributes import FileMetadata

from tests._linecount import REPRO_DIR, lines_executed


def _build():
    return QueryResult("/p", 1, QueryLevel.L1, 0.5, 0, 0, 1, False)


def test_generated_lines_are_booked_to_the_calling_package():
    # The walk builds a NamedTuple ``QueryResult`` per query.
    cluster = GHBACluster(4, GHBAConfig(max_group_size=2, expected_files_per_mds=16), seed=3)
    cluster.populate([f"/g/f{i}" for i in range(8)])
    for _ in range(3):  # warm: L1 holds the path, every series it books exists
        cluster.query("/g/f1", 0)
    counted = lines_executed(lambda: cluster.query("/g/f1", 0), REPRO_DIR, by_package=True)
    again, made = lines_executed(
        lambda: cluster.query("/g/f1", 0), REPRO_DIR, by_package=True, generated=True
    )
    assert again == counted
    # ``QueryResult`` is built in core, the probes' ``ArrayLookup`` in bloom.
    assert set(made) == {"core", "bloom"} and min(made.values()) > 0
    total, made_total = lines_executed(
        lambda: cluster.query("/g/f1", 0), REPRO_DIR, generated=True
    )
    assert total == sum(counted.values())
    assert made_total == sum(made.values())


def test_generated_code_called_from_outside_the_roots_is_not_counted():
    assert lines_executed(_build, REPRO_DIR) == 0
    assert lines_executed(_build, REPRO_DIR, generated=True) == (0, 0)
    # A dataclass ``__init__`` called from here is not counted; the
    # ``__post_init__`` it calls lies under the roots and is.
    packages, made = lines_executed(
        lambda: FileMetadata(path="/x", inode=1), REPRO_DIR, by_package=True, generated=True
    )
    assert set(packages) == {"metadata"} and made == {}
