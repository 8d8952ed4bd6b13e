"""The seam between the gateway tier and the fleet (DESIGN §9, "The
backend surface").

Two checks, both red on any reach past
:class:`~repro.gateway.backend.MetadataBackend`:

- a *strict proxy* that forwards only the declared names serves one
  seeded mixed trace exactly as the bare :class:`GHBACluster` does;
- the modules a served request passes through never name a fleet
  internal (``.servers``, ``.store``, ``.config.network``, a server's
  ``file_count``).
"""

import ast
import inspect
from pathlib import Path

import pytest

import repro.gateway
from repro.core.cluster import GHBACluster
from repro.faults.injector import PlanFaultInjector
from repro.faults.plan import FaultPlan
from repro.gateway.backend import MetadataBackend
from repro.gateway.client import GatewayConfig, MetadataClient, Outcome
from repro.gateway.staleness import matches_fleet
from repro.metadata.attributes import FileMetadata
from repro.scenario import build_fleet

BACKEND_NAMES = frozenset(
    name
    for name in (*vars(MetadataBackend), *MetadataBackend.__annotations__)
    if not name.startswith("_")
)

SERVERS = 8
PATHS = [f"/seam/d{i % 6}/f{i}" for i in range(240)]


class StrictBackend:
    """Forwards the :class:`MetadataBackend` names to a fleet and refuses
    every other attribute, remembering what was asked for."""

    def __init__(self, fleet: GHBACluster) -> None:
        self._fleet = fleet
        self.foreign = []
        self.used = set()

    def __getattr__(self, name):
        if name not in BACKEND_NAMES:
            self.foreign.append(name)
            raise AttributeError(f"{name!r} is not a MetadataBackend name")
        self.used.add(name)
        return getattr(self._fleet, name)


def _fleet() -> GHBACluster:
    return build_fleet(
        SERVERS, len(PATHS), 5, PATHS,
        faults=PlanFaultInjector(FaultPlan(seed=5)),
    )


def _replay(fleet: GHBACluster, backend, writeback: bool):
    """One mixed trace; ``fleet`` is the raw cluster (what "another
    client" and the fault plan act on), ``backend`` what the gateway gets."""
    gateway = MetadataClient(
        backend,
        GatewayConfig(
            writeback=writeback,
            flush_max_pending=4,
            lease_ttl_s=0.4,
            hot_threshold=4,
            writeback_seed=5,
        ),
    )
    seen = []

    def note(response):
        # The per-answer audit goes through the seam too.
        seen.append((response, matches_fleet(backend, response)))

    now = 0.0
    for step in range(160):
        now += 0.01
        path = PATHS[(step * 7) % len(PATHS)]
        if step % 11 == 3:
            note(gateway.create(f"/seam/new/{step}", now))
        elif step % 11 == 6:
            note(gateway.delete(path, now))
        elif step % 40 == 20:
            seen.append(gateway.rename("/seam/d5", f"/seam/r{step}", now))
        else:
            # A hot set, a duplicate to coalesce, a path that comes back
            # after its lease expired (-> verify_batch), an absent path.
            tick = [
                path,
                PATHS[step % 9],
                path,
                PATHS[100 + step % 60],
                f"/seam/absent/{step % 4}",
            ]
            for response in gateway.lookup_many(tick, now):
                note(response)
    # A forced version conflict: lease, buffer a delete on that base,
    # let "another client" win the race, then flush.
    victim = PATHS[1]
    note(gateway.lookup(victim, now))
    note(gateway.delete(victim, now))
    home = fleet.delete_file(victim)
    fleet.insert_file(FileMetadata(path=victim, inode=9_001), home_id=home)
    gateway.flush_barrier(now)
    # A fault-degraded delete of a path with no lease: half the fleet
    # is silent, so the routing walk cannot be trusted.
    for server_id in range(SERVERS // 2):
        fleet.faults.silence(server_id)
    now += 1.0
    for path in PATHS[200:212]:
        note(gateway.delete(path, now))
    for response in gateway.lookup_many(PATHS[160:172], now):
        note(response)  # some are served degraded, none of those leased
    for server_id in range(SERVERS // 2):
        fleet.faults.restore(server_id)
    gateway.flush_barrier(now + 1.0)
    seen.extend(gateway.pump(now + 2.0))
    return gateway, seen


def _check_mode(writeback: bool) -> set:
    """Replay bare and proxied; returns the backend names the proxy saw."""
    bare_fleet, proxied_fleet = _fleet(), _fleet()
    proxy = StrictBackend(proxied_fleet)
    bare, bare_seen = _replay(bare_fleet, bare_fleet, writeback)
    strict, strict_seen = _replay(proxied_fleet, proxy, writeback)

    assert proxy.foreign == []
    assert strict_seen == bare_seen
    assert strict.backend_queries == bare.backend_queries
    assert strict.backend_mutations == bare.backend_mutations
    assert strict.metrics.snapshot() == bare.metrics.snapshot()

    # Non-vacuity: the trace reached the paths the seam protects.
    series = {
        name: family["series"]
        for name, family in bare.metrics.snapshot().items()
    }
    outcomes = {
        entry[0].outcome for entry in bare_seen if isinstance(entry, tuple)
    }
    assert outcomes >= {
        Outcome.HIT, Outcome.NEGATIVE_HIT, Outcome.BATCHED, Outcome.SERVED,
        Outcome.COALESCED,
    }
    assert series["gateway_degraded_uncached_total"].get("", 0) >= 1
    if writeback:
        assert series["gateway_writeback_conflict_total"][""] == 1
        assert series["gateway_writeback_reread_total"][""] == 1
        assert series["gateway_writeback_passthrough_total"]["delete"] >= 1
        assert series["gateway_writeback_passthrough_total"]["rename"] >= 1
        assert Outcome.OVERLAY in outcomes and Outcome.BUFFERED in outcomes
    return proxy.used


def test_strict_proxy_serves_the_trace_identically():
    """Write-through and write-back; between them every name is used."""
    assert _check_mode(False) | _check_mode(True) == BACKEND_NAMES


def test_the_surface_is_fourteen_names_and_the_cluster_has_them():
    assert len(BACKEND_NAMES) == 14
    fleet = GHBACluster(2)
    assert [name for name in BACKEND_NAMES if not hasattr(fleet, name)] == []
    parameters = inspect.signature(MetadataClient.__init__).parameters
    assert parameters["cluster"].annotation == "MetadataBackend"


#: The modules a served request passes through.  Fleet set-up
#: (``repro.scenario.build_fleet``) and the write-back scenario's end-of-run
#: namespace dump are set-up and audit, not serving, and are not listed.
SERVING_MODULES = (
    "client", "cohort", "cache", "coalesce", "hotspot", "admission",
    "writeback", "staleness",
)


def _reach_ins(tree: ast.AST):
    called = {
        id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        inner = node.value
        if node.attr in ("servers", "store"):
            yield node.lineno, f".{node.attr}"
        elif (
            node.attr == "network"
            and isinstance(inner, ast.Attribute)
            and inner.attr == "config"
        ):
            yield node.lineno, ".config.network"
        elif node.attr == "file_count" and id(node) not in called:
            yield node.lineno, ".file_count of a server"


@pytest.mark.parametrize("module", SERVING_MODULES)
def test_serving_modules_never_reach_into_the_fleet(module):
    source = Path(repro.gateway.__file__).with_name(f"{module}.py")
    tree = ast.parse(source.read_text(encoding="utf-8"))
    assert list(_reach_ins(tree)) == []


def test_the_source_check_sees_a_reach_in():
    tree = ast.parse(
        "r = self.cluster.servers[h].store.get(p)\n"
        "ms = cluster.config.network.round_trip_ms()\n"
        "n = sum(s.file_count for s in fleet)\n"
        "ok = self.cluster.file_count()\n"
    )
    assert [what for _, what in sorted(_reach_ins(tree))] == [
        ".servers", ".store", ".config.network", ".file_count of a server",
    ]
