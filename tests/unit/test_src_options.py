"""No option under ``src/repro`` exists only for the tests.

A *knob* is a parameter with a default value of a function, a method or an
``__init__`` defined under ``src/repro``.  A knob is *set* when some call by
that name in ``src/``, ``bench/``, ``benchmarks/`` or ``examples/`` passes
it by keyword, reaches its position, or splats ``*args`` / ``**kwargs``.
An ``__init__`` is called by its class's name, by ``cls(...)`` in its own
class, and by ``super().__init__`` from a class that names it as a base.
A function passed around as a value sets nothing: its eventual call goes
by another name.  The scan matches by name, like
:mod:`tests.unit.test_src_surface`, whose definition walker it reuses, so
a knob of one method that shares its name with a used one goes unseen.

The result must equal :data:`ALLOWED`: the knobs only tests set, kept on
purpose, each with one reason from the short list below.  Every other
test-only knob is a constant in disguise: delete it with the tests that
turn it.  Fields of config objects are not parameters and stay under
their own caller checks.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

from tests.unit.test_src_surface import ROOT, SCANNED, _definitions

DEPLOYMENT = "a deployment setting: an address, path, port or process timeout"
INJECTED = "an injected tracer, metrics registry or flight recorder"
REFERENCE = "a differential sets it to match its frozen reference"
DISPATCH = (
    "set only through a dispatch table: run_scenario calls "
    "scenario(spec, tracer=..., flight=...)"
)

#: The test-only knobs kept on purpose → why each stays.
ALLOWED: Dict[str, str] = {
    # remove_server(rehome=False) is what lets the HBA and reconfiguration
    # differentials match their frozen clusters.
    "repro.core.cluster.GHBACluster.remove_server.rehome": REFERENCE,
    "repro.faults.__main__.drill.flight": DISPATCH,
    "repro.faults.__main__.drill.tracer": DISPATCH,
    "repro.faults.__main__.soak.flight": DISPATCH,
    "repro.faults.__main__.soak.tracer": DISPATCH,
    "repro.gateway.scenarios.run_cohort.flight": DISPATCH,
    "repro.gateway.scenarios.run_cohort.tracer": DISPATCH,
    "repro.gateway.scenarios.run_shield.flight": DISPATCH,
    "repro.gateway.scenarios.run_writeback.flight": DISPATCH,
    "repro.gateway.scenarios.run_writeback.tracer": DISPATCH,
    "repro.gateway.tenant_bench.run_tenants.flight": DISPATCH,
    "repro.gateway.tenant_bench.run_tenants.tracer": DISPATCH,
    "repro.obs.__main__.slo.flight": DISPATCH,
    "repro.obs.__main__.slo.tracer": DISPATCH,
    "repro.replication.drill.run_drill.flight": DISPATCH,
    "repro.replication.drill.run_drill.tracer": DISPATCH,
    "repro.net.reliability.ReliableTransport.gather.timeout_s": DEPLOYMENT,
    "repro.net.supervisor.ProcessSupervisor.launch_mds.checkpoint": DEPLOYMENT,
    "repro.net.supervisor.ProcessSupervisor.stop_mds.timeout_s": DEPLOYMENT,
    "repro.net.tcp.PortMap.reserve.host": DEPLOYMENT,
    # The retry policy is the per-attempt timeout and the attempt budget.
    "repro.net.tcp.TcpTransport.__init__.retry": DEPLOYMENT,
    "repro.prototype.node.MailboxNode.stop.timeout_s": DEPLOYMENT,
    "repro.replication.ship.ReplicationShipper.__init__.timeout_s": DEPLOYMENT,
    "repro.replication.ship.fence_probe.timeout_s": DEPLOYMENT,
    "repro.replication.ship.promote_standby.timeout_s": DEPLOYMENT,
    # A standby restarted from its checkpoint file keeps its node id.
    "repro.replication.standby.StandbyEndpoint.load.node_id": DEPLOYMENT,
    "repro.replication.standby.StandbyEndpoint.load.checkpoint_path": DEPLOYMENT,
    "repro.replication.standby.StandbyNode.__init__.checkpoint_path": DEPLOYMENT,
    "repro.replication.standby.StandbyEndpoint.load.metrics": INJECTED,
}

#: A call seen in the scanned trees: (positional count, keywords, splats).
_Call = Tuple[int, frozenset, bool]


def _called_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_super_init(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "__init__"
        and isinstance(func.value, ast.Call)
        and isinstance(func.value.func, ast.Name)
        and func.value.func.id == "super"
    )


def _calls(
    tree: ast.AST, owner: str = "", bases: Tuple[str, ...] = ()
) -> Iterator[Tuple[str, _Call]]:
    """``(called name, call shape)`` of every call under ``tree``; ``owner``
    and ``bases`` name the class the call sits in and its bases."""
    for child in ast.iter_child_nodes(tree):
        inner = owner, bases
        if isinstance(child, ast.ClassDef):
            inner = child.name, tuple(
                base.id if isinstance(base, ast.Name) else base.attr
                for base in child.bases
                if isinstance(base, (ast.Name, ast.Attribute))
            )
        if isinstance(child, ast.Call):
            shape = (
                sum(not isinstance(arg, ast.Starred) for arg in child.args),
                frozenset(kw.arg for kw in child.keywords if kw.arg),
                any(isinstance(arg, ast.Starred) for arg in child.args)
                or any(kw.arg is None for kw in child.keywords),
            )
            name = _called_name(child)
            if _is_super_init(child):
                names = bases
            elif name == "cls" and owner:
                names = (owner,)
            else:
                names = (name,)
            for name in names:
                if name is not None:
                    yield name, shape
        yield from _calls(child, *inner)


def _knobs(node: ast.FunctionDef, bound: bool) -> Iterator[Tuple[str, Optional[int]]]:
    """``(parameter, call position or None)`` of each defaulted parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        yield positional[index].arg, index - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _is_set(param: str, position: Optional[int], calls: List[_Call]) -> bool:
    return any(
        splat or param in keywords or (position is not None and position < npos)
        for npos, keywords, splat in calls
    )


def scan() -> List[str]:
    """Knobs under ``src/repro`` that no scanned call sets, qualified."""
    calls: Dict[str, List[_Call]] = defaultdict(list)
    definitions = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for name, shape in _calls(tree):
                calls[name].append(shape)
            if top == "src":  # src/ holds the one package, repro
                module = path.relative_to(ROOT / "src").with_suffix("")
                if module.name == "__init__":
                    module = module.parent
                definitions.update(_definitions(tree, ".".join(module.parts)))
    unset = []
    for qualified, node in definitions.items():
        if isinstance(node, ast.ClassDef):
            continue
        owner = definitions.get(qualified.rsplit(".", 1)[0])
        method = isinstance(owner, ast.ClassDef)
        static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list
        )
        name = owner.name if method and node.name == "__init__" else node.name
        for param, position in _knobs(node, method and not static):
            if not _is_set(param, position, calls[name]):
                unset.append(f"{qualified}.{param}")
    return sorted(unset)


def test_only_the_allowlist_is_set_only_by_tests():
    found = set(scan())
    unexpected = sorted(found - set(ALLOWED))
    stale = sorted(set(ALLOWED) - found)
    assert not unexpected and not stale, (
        f"options under src/repro that only tests set: {unexpected} — "
        "delete each (a value nobody outside tests/ passes is a constant) "
        "or add it to ALLOWED in this file with its reason; "
        f"allowlisted but now set outside tests/, or gone: {stale} — drop "
        "them from ALLOWED"
    )
