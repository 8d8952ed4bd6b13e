"""A mutation costs what it touches, not what the fleet holds.

Counted, not timed (the pattern of ``test_gateway_scaling.py``): under
``sys.settrace`` the number of source lines executed inside
``repro/core``, ``repro/metadata`` and ``repro/bloom`` by

- one ``rename_subtree`` of a 12-file directory must be *equal* with
  2 000 and with 64 000 files in the fleet (the parent walked every
  stored path on every server per rename: ``for path in
  server.store.paths()``),
- one ``insert_file`` and one ``delete_file`` must be *equal* with 2 and
  with 29 per-home filters in the home's L1 array (the parent re-summed
  every filter's size on each: ``sum(bloom.size_bytes() for …)``), and
- one ``LRUBloomFilterArray.invalidate_home`` of a home the array holds
  no filter of must be *equal* with 4 and with 400 cached entries.

Lines are the unit because the C-level work left on the path is a
handful of calls whatever the store holds: two ``bisect`` searches and a
slice per store, one ``insort`` / ``del`` on the index per re-keyed
record (a pointer ``memmove``), ``dict`` operations.  The renames are
measured warm: the first subtree query of a store sorts its paths once
(lazily, so a fleet that never renames never does) and the first hash of
a name is memoised, and neither one-off is the steady state.

An AST guard closes the door behind it: nothing reachable from the
mutation entry points may iterate ``store.paths()`` / ``store.records()``
except the index's own lazy build.

The last test holds each step of one operation flat in the number of
servers (M = 4, N = 20, 80 and 320, counted by package under all of
``src/repro`` as ``test_l3_cost.py`` counts L2 and L3): an L4 query of a
never-created path, ``delete_file``, ``insert_file`` and a one-create
``apply_mutation_batch`` execute equal lines at the three sizes; a sync
after one home drifted executes equal lines *per ship* (it ships to the
N/M - 1 other groups, which the paper charges); a rename reaches every
server, and pays at most ``RENAME_LINES_PER_SERVER`` for each one that
holds nothing under the old name.  The fleets hold the same records on
the same homes at every size, so every step but the fleet's own width
sees the same state.
"""

import ast
import inspect
import os
import sys

import pytest

import repro.bloom
import repro.core
import repro.metadata
from repro.bloom.arrays import LRUBloomFilterArray
from repro.core.cluster import GHBACluster, PathMutation
from repro.core.config import GHBAConfig
from repro.core.query import QueryLevel
from repro.core.server import MetadataServer
from repro.metadata.attributes import FileMetadata
from repro.metadata.store import MetadataStore

from tests._linecount import REPRO_DIR, lines_executed

COUNTED_DIRS = tuple(
    os.path.dirname(package.__file__)
    for package in (repro.core, repro.metadata, repro.bloom)
)
SERVERS = 8


def _lines(call):
    """Source lines ``call()`` executes in the three counted packages."""
    return lines_executed(call, COUNTED_DIRS)


def _fleet(files):
    cluster = GHBACluster(
        SERVERS,
        GHBAConfig(
            max_group_size=4,
            expected_files_per_mds=256,
            lru_capacity=64,
            lru_filter_bits=1 << 8,
            lru_num_hashes=3,
            seed=3,
        ),
        seed=3,
    )
    cluster.populate(f"/bulk/d{i % 97}/f{i}" for i in range(files))
    return cluster


def test_rename_cost_is_independent_of_fleet_size():
    counts = []
    for files in (2_000, 64_000):
        cluster = _fleet(files)
        # The renamed directory: 12 files on the same homes at both sizes,
        # beside a sibling the range must not swallow.
        for index in range(12):
            cluster.insert_file(
                FileMetadata(path=f"/hot/dir/f{index}", inode=index),
                home_id=index % SERVERS,
            )
        cluster.insert_file(FileMetadata(path="/hot/dir.mv", inode=99), home_id=0)
        # There and back once: every store's index is built and both sets
        # of names are in the Bloom layer's hash memo, as in steady state.
        assert cluster.rename_subtree("/hot/dir", "/hot/dir.moved") == 12
        assert cluster.rename_subtree("/hot/dir.moved", "/hot/dir") == 12
        renamed = []
        counts.append(
            _lines(
                lambda: renamed.append(
                    cluster.rename_subtree("/hot/dir", "/hot/dir.moved")
                )
            )
        )
        assert renamed == [12]
        assert cluster.home_of("/hot/dir.moved/f5") == 5
        assert cluster.home_of("/hot/dir.mv") == 0
        cluster.check_invariants()
    assert counts[0] == counts[1] > 0


def test_insert_and_delete_cost_is_independent_of_l1_filter_count():
    inserts, deletes = [], []
    for homes in (2, 29):
        cluster = GHBACluster(
            30,
            GHBAConfig(
                max_group_size=6,
                expected_files_per_mds=64,
                lru_capacity=256,
                lru_filter_bits=1 << 8,
                lru_num_hashes=3,
                seed=3,
            ),
            seed=3,
        )
        home = cluster.servers[4]
        for other in [sid for sid in cluster.server_ids() if sid != 4][:homes]:
            home.record_lru(f"/seen/at{other}", other)
        assert home.lru.num_filters == homes
        meta = FileMetadata(path="/new/file", inode=1)
        # Once unmeasured: the first hash of a name is memoised process-wide.
        cluster.insert_file(meta, home_id=4)
        cluster.delete_file("/new/file")
        inserts.append(_lines(lambda: cluster.insert_file(meta, home_id=4)))
        deletes.append(_lines(lambda: cluster.delete_file("/new/file")))
        assert cluster.home_of("/new/file") is None
        rest = home._filter_bytes + home._metadata_bytes
        assert home.footprint_bytes == rest + home.lru.size_bytes()
        cluster.check_invariants()
    assert inserts[0] == inserts[1] > 0
    assert deletes[0] == deletes[1] > 0


def test_a_departure_costs_a_survivor_nothing_when_it_caches_no_entry_of_it():
    """Every survivor's L1 hears of a departure; one that holds no filter
    of the departed MDS runs the same lines at 4 and at 400 entries (it
    used to list the whole L1 to find no victim)."""
    counts = []
    for entries in (4, 400):
        lru = LRUBloomFilterArray(512, filter_bits=1 << 8, num_hashes=3)
        for index in range(entries):
            lru.record(f"/cached/f{index}", index % 4)
        assert lru.num_filters == 4
        counts.append(_lines(lambda: lru.invalidate_home(99)))
        assert len(lru) == entries
    assert counts[0] == counts[1] > 0


# ----------------------------------------------------------------------
# AST guard
# ----------------------------------------------------------------------
CLASSES = (GHBACluster, MetadataServer, MetadataStore, LRUBloomFilterArray)
ENTRY_POINTS = (
    "insert_file", "delete_file", "rename_subtree", "rename_subtree_at",
    "_commit_create", "_commit_delete",
)
SCANS = {"paths", "records"}
#: The index's own lazy build is the one sanctioned walk of a store.
SANCTIONED = {("MetadataStore", "_build_index")}


def _methods():
    """``{(class, method): FunctionDef}`` of the four classes a mutation
    can run through."""
    out = {}
    for cls in CLASSES:
        tree = ast.parse(inspect.getsource(sys.modules[cls.__module__]))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == cls.__name__:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        out[(cls.__name__, item.name)] = item
    return out


def _called_names(function):
    """``(receiver_is_self, attribute)`` of every ``x.attr(...)`` call."""
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            yield (
                isinstance(receiver, ast.Name) and receiver.id == "self",
                node.func.attr,
            )


def test_nothing_reachable_from_a_mutation_walks_a_store():
    """Name-based reachability (an over-approximation: ``x.m()`` reaches
    ``m`` of *every* other class that defines it, ``self.m()`` the own
    class's) from the mutation entry points finds no ``.paths()`` /
    ``.records()`` call outside the sanctioned lazy build."""
    methods = _methods()
    frontier = [("GHBACluster", name) for name in ENTRY_POINTS]
    assert all(key in methods for key in frontier)
    reached = set()
    while frontier:
        key = frontier.pop()
        if key in reached:
            continue
        reached.add(key)
        for on_self, name in _called_names(methods[key]):
            for other in methods:
                if other[1] == name and (other[0] == key[0]) == on_self:
                    frontier.append(other)
    # The walk got somewhere: through the server into the store and L1.
    for expected in (
        ("MetadataServer", "rekey_subtree"),
        ("MetadataServer", "remove_metadata"),
        ("MetadataStore", "paths_under"),
        ("MetadataStore", "put"),
        ("LRUBloomFilterArray", "invalidate"),
        ("LRUBloomFilterArray", "size_bytes"),
    ):
        assert expected in reached, expected
    walkers = {
        key
        for key in reached
        if any(name in SCANS for _, name in _called_names(methods[key]))
    }
    assert walkers == SANCTIONED, sorted(walkers - SANCTIONED)


# ----------------------------------------------------------------------
# Flat in the fleet size
# ----------------------------------------------------------------------
FLEET_SIZES = (20, 80, 320)
#: Lines a rename may spend on a server that holds nothing under the old
#: name: the loop, one range check of its store.
RENAME_LINES_PER_SERVER = 8
#: Homes that exist at every size hold the same records at every size.
HOMES = 16


def _wide_fleet(servers):
    cluster = GHBACluster(
        servers,
        GHBAConfig(
            max_group_size=4,
            expected_files_per_mds=64,
            lru_capacity=8,
            lru_filter_bits=64,
            update_threshold_bits=4,
            seed=11,
        ),
        seed=11,
    )
    for index in range(10 * HOMES):
        cluster.insert_file(
            FileMetadata(path=f"/w/d{index % 7}/f{index}", inode=index),
            home_id=index % HOMES,
        )
    for index in range(5):
        cluster.insert_file(
            FileMetadata(path=f"/w/mv/f{index}", inode=500 + index), home_id=index
        )
    cluster.synchronize_replicas(force=True)
    return cluster


@pytest.fixture(scope="module")
def wide_fleets():
    return {servers: _wide_fleet(servers) for servers in FLEET_SIZES}


def _by_package(call):
    return lines_executed(call, REPRO_DIR, by_package=True)


def _step_lines(cluster):
    """``{step: lines by package}`` of one of each step on ``cluster``,
    each run once unmeasured first (memos, metric children, the store's
    path index), then measured on the same state."""
    out = {}
    never = "/w/never/created"
    assert cluster.index.holders(never) == ()
    cluster.query(never, origin_id=3)
    answer = []
    out["l4_negative"] = _by_package(
        lambda: answer.append(cluster.query(never, origin_id=3))
    )
    assert answer[0].level is QueryLevel.NEGATIVE and answer[0].home_id is None

    meta = FileMetadata(path="/w/doomed", inode=900)
    for measured in (False, True):
        insert = _by_package(lambda: cluster.insert_file(meta, home_id=2))
        for origin in (5, 7):  # two origins cache it in L1
            assert cluster.query(meta.path, origin_id=origin).home_id == 2
        assert cluster.l1_holders[meta.path] == 1 << 5 | 1 << 7
        delete = _by_package(lambda: cluster.delete_file(meta.path))
        assert meta.path not in cluster.l1_holders
        assert cluster.home_of(meta.path) is None
    out["insert_file"], out["delete_file"] = insert, delete

    created = FileMetadata(path="/w/batch", inode=910)
    for version in (1, 2):
        batch = [PathMutation(version=version, op="create", path=created.path, record=created)]
        lines = _by_package(lambda: cluster.apply_mutation_batch(6, batch, origin=1))
        assert cluster.delete_file(created.path) == 6
    out["apply_mutation_batch"] = lines
    cluster.synchronize_replicas(force=True)

    for index in range(3):
        cluster.insert_file(FileMetadata(path=f"/w/drift/f{index}", inode=920 + index), home_id=0)
    report = []
    out["sync"] = _by_package(lambda: report.append(cluster.synchronize_replicas()))
    assert report[0].servers_updated == 1
    out["ships"] = report[0].groups_contacted

    assert cluster.query("/w/mv/f1", origin_id=9).home_id == 1
    assert cluster.rename_subtree("/w/mv", "/w/mv2") == 5
    assert cluster.rename_subtree("/w/mv2", "/w/mv") == 5
    assert cluster.query("/w/mv/f1", origin_id=9).home_id == 1
    out["rename"] = sum(_by_package(lambda: cluster.rename_subtree("/w/mv", "/w/mv2")).values())
    assert "/w/mv/f1" not in cluster.l1_holders
    assert cluster.rename_subtree("/w/mv2", "/w/mv") == 5
    cluster.check_invariants()
    cluster.index.check_index()
    return out


def test_one_operation_is_flat_in_the_fleet_size(wide_fleets):
    steps = {servers: _step_lines(cluster) for servers, cluster in wide_fleets.items()}
    small, mid, large = (steps[servers] for servers in FLEET_SIZES)
    for step in ("l4_negative", "insert_file", "delete_file", "apply_mutation_batch"):
        assert small[step] == mid[step] == large[step], (step, small[step], large[step])
    # One ship per other group; what the sync spends besides is fixed.
    assert [steps[n]["ships"] for n in FLEET_SIZES] == [n // 4 - 1 for n in FLEET_SIZES]
    per_ship = [
        {
            package: (b["sync"].get(package, 0) - a["sync"].get(package, 0))
            / (b["ships"] - a["ships"])
            for package in a["sync"].keys() | b["sync"].keys()
        }
        for a, b in ((small, mid), (mid, large))
    ]
    assert per_ship[0] == per_ship[1], per_ship
    for a, b, servers in ((small, mid, 60), (mid, large, 240)):
        assert (b["rename"] - a["rename"]) / servers <= RENAME_LINES_PER_SERVER, (
            a["rename"], b["rename"]
        )
