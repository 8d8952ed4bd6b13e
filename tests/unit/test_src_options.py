"""No option under ``src/repro`` exists only for the tests.

A *knob* is a parameter with a default value of a function, a method or
an ``__init__`` defined under ``src/repro``, or a defaulted field of a
frozen ``@dataclass`` there (a config object's fields are its
``__init__``).  A knob is *set* when a call in ``src/``, ``bench/`` (its
``tests/`` aside), ``benchmarks/`` or ``examples/`` passes it by keyword,
reaches its position, or splats ``*args`` / ``**kwargs``.

A call sets only what it resolves to.  Its name is looked up in the
calling module's imports and top-level definitions, re-exports followed:
``fig13.run(...)`` after ``from repro.experiments import fig13`` counts
for ``repro.experiments.fig13.run`` alone, as does a bare ``run(trace)``
inside ``fig13``, and ``subprocess.run(...)`` sets nothing under
``repro``.  A call that does not resolve (a method on an object,
``self.run(...)``) counts for every definition of that name, like
:mod:`tests.unit.test_src_surface`, whose walkers it reuses; so a knob of
one method that shares its name with a used one goes unseen.  A class is
called by its name, by ``cls(...)`` in its own body and by
``super().__init__`` from a class that names it as a base.  A field is
also set by a keyword of ``parse_spec(parser, Cls, ...)`` and of
``dataclasses.replace``: for the one class whose call builds the object,
in place or through a name the same scope binds only from such calls
(``base = GHBAConfig(...)``); for every class when the object's class is
not known (``replace(config, ...)`` of a parameter), a fallback that can
hide a same-named field.  A frozen dataclass is one whose
``dataclass(...)`` decorator, or a module-level alias of it, passes
``frozen=True``.  A function passed around as a value sets nothing,
since its eventual call goes by another name: the benchmark suite writes
its scales out in a lambda, ``run_once(lambda: fig13.run(num_ops=20_000))``.

A new field needs a caller that builds its class with it, replaces it or
parses it from a command line; a value nobody outside ``tests/`` passes
is a module constant, which a test monkeypatches.  The result must equal
:data:`ALLOWED`: the knobs only tests set, kept on purpose, each with one
reason from the short list below.  Every other test-only knob is a
constant in disguise: delete it with the tests that turn it.
"""

from __future__ import annotations

import ast
import textwrap
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from tests.unit.test_src_surface import _DEFINITIONS, ROOT, _definitions, sources

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
    # The retry policy is the attempt budget of a deployed transport.
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


def _shape(call: ast.Call, skip: int = 0) -> _Call:
    args = call.args[skip:]
    return (
        sum(not isinstance(arg, ast.Starred) for arg in args),
        frozenset(kw.arg for kw in call.keywords if kw.arg),
        any(isinstance(arg, ast.Starred) for arg in args)
        or any(kw.arg is None for kw in call.keywords),
    )


def _dotted(node: ast.AST) -> Optional[List[str]]:
    """``["a", "b", "c"]`` for ``a.b.c``; None for any other expression."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else head + [node.attr]
    return None


class _Names:
    """What each module's names stand for: its absolute imports and its
    own top-level definitions, re-exports followed."""

    def __init__(self, definitions: Dict[str, ast.AST]) -> None:
        self.definitions = definitions
        self.modules: Dict[str, Dict[str, str]] = {}

    def add(self, module: str, tree: ast.Module) -> None:
        names = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        names[alias.asname] = alias.name
                    else:  # ``import a.b`` binds ``a``
                        head = alias.name.split(".")[0]
                        names[head] = head
            elif isinstance(node, ast.ImportFrom) and not node.level:
                for alias in node.names:
                    names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in tree.body:
            if isinstance(node, _DEFINITIONS):
                names[node.name] = f"{module}.{node.name}"
        self.modules[module] = names

    def resolve(self, module: str, dotted: List[str]) -> Optional[str]:
        """What ``dotted`` names in ``module``: a definition under
        ``src/repro``, a name outside ``repro``, or None when it names no
        definition (a value, an object's method, a local)."""
        target = self.modules[module].get(dotted[0])
        if target is None:
            return None
        qualified, seen = ".".join([target] + dotted[1:]), set()
        while qualified not in self.definitions:
            if qualified.split(".")[0] != "repro":
                return qualified
            if qualified in seen:
                return None
            seen.add(qualified)
            qualified = self._reexported(qualified)
            if qualified is None:
                return None
        return qualified

    def _reexported(self, qualified: str) -> Optional[str]:
        """``qualified`` with the name after its longest module prefix
        replaced by what that name stands for in the module."""
        parts = qualified.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            names = self.modules.get(".".join(parts[:cut]), {})
            if parts[cut] in names:
                return ".".join([names[parts[cut]]] + parts[cut + 1:])
        return None


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scope(node: ast.AST) -> Iterator[ast.AST]:
    """The nodes of ``node``'s own scope: nested functions, lambdas and
    class bodies left out."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, _SCOPES + (ast.Lambda,)):
            yield child
            yield from _scope(child)

#: A scope's names bound to a class: the class's qualified name, or None
#: for a name that may hold anything else.
_Bound = Dict[str, Optional[str]]


class _Calls:
    """Every scanned call, filed under what it calls: ``resolved`` by a
    qualified definition (a class stands for its ``__init__`` and its
    fields), ``bare`` by the name of a call that did not resolve;
    ``replaced`` holds the keywords of a ``dataclasses.replace`` whose
    object's class is not known."""

    def __init__(self, names: _Names) -> None:
        self.names = names
        self.resolved: Dict[str, List[_Call]] = defaultdict(list)
        self.bare: Dict[str, List[_Call]] = defaultdict(list)
        self.replaced: set = set()

    def of(self, qualified: str) -> List[_Call]:
        return self.resolved[qualified] + self.bare[qualified.rsplit(".", 1)[-1]]

    def gather(
        self,
        module: str,
        tree: ast.AST,
        owner: str = "",
        bases: Tuple[str, ...] = (),
        bound: Optional[_Bound] = None,
    ) -> None:
        """Files every call under ``tree``; ``owner`` and ``bases`` name
        the class the call sits in and its bases, ``bound`` the names of
        its scope that hold an instance of a known class."""
        if bound is None:
            bound = self._bind(module, tree, {})
        for child in ast.iter_child_nodes(tree):
            inner = owner, bases, bound
            if isinstance(child, ast.ClassDef):
                inner = f"{module}.{child.name}", tuple(
                    self._target(module, dotted)
                    for dotted in map(_dotted, child.bases)
                    if dotted
                ), bound
            elif isinstance(child, _SCOPES):
                inner = owner, bases, self._bind(module, child, bound)
            if isinstance(child, ast.Call):
                self._file(module, child, owner, bases, bound)
            self.gather(module, child, *inner)

    def _target(self, module: str, dotted: List[str]) -> str:
        return self.names.resolve(module, dotted) or dotted[-1]

    def _class_of(self, module: str, expr: ast.AST, bound: _Bound) -> Optional[str]:
        """The class ``expr`` is an instance of, when a call of the class
        builds it or a name bound from one holds it; else None."""
        if isinstance(expr, ast.Name):
            return bound.get(expr.id)
        dotted = _dotted(expr.func) if isinstance(expr, ast.Call) else None
        target = dotted and self.names.resolve(module, dotted)
        if isinstance(self.names.definitions.get(target), ast.ClassDef):
            return target
        return None

    def _bind(self, module: str, node: ast.AST, outer: _Bound) -> _Bound:
        """``outer`` with the names ``node``'s own scope assigns: each
        bound only from calls of one class stands for that class, every
        other one (a parameter too) for None."""
        bound = dict(outer)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                bound[arg.arg] = None
        built = {}
        for stmt in _scope(node):
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    built[id(target)] = self._class_of(module, stmt.value, outer)
        classes = defaultdict(set)
        for name in _scope(node):
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                classes[name.id].add(built.get(id(name)))
        for name, kinds in classes.items():
            bound[name] = kinds.pop() if len(kinds) == 1 else None
        return bound

    def _file(
        self, module: str, call: ast.Call, owner: str, bases, bound: _Bound
    ) -> None:
        func, dotted = call.func, _dotted(call.func)
        if (
            isinstance(func, ast.Attribute) and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and _dotted(func.value.func) == ["super"]
        ):
            targets = bases
        elif dotted == ["cls"] and owner:
            targets = (owner,)
        elif dotted is not None:
            targets = (self._target(module, dotted),)
        elif isinstance(func, ast.Attribute):
            targets = (func.attr,)
        else:
            return
        shape = _shape(call)
        for target in targets:
            if target == "dataclasses.replace":
                known = call.args and self._class_of(module, call.args[0], bound)
                if not known:
                    self.replaced.update(shape[1])
                    continue
                target, shape = known, _shape(call, skip=1)
            if target == "repro.scenario.parse_spec":
                spec = _dotted(call.args[1]) if len(call.args) > 1 else None
                if spec is None:
                    continue
                target, shape = self._target(module, spec), _shape(call, skip=2)
            table = self.resolved if "." in target else self.bare
            table[target].append(shape)


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


def _frozen(decorator: ast.AST) -> bool:
    """Whether ``decorator`` is ``dataclass(..., frozen=True, ...)``."""
    return (
        isinstance(decorator, ast.Call)
        and (_dotted(decorator.func) or [""])[-1] == "dataclass"
        and any(
            kw.arg == "frozen" and getattr(kw.value, "value", None) is True
            for kw in decorator.keywords
        )
    )


def _frozen_aliases(tree: ast.Module) -> set:
    """Names a module binds to a frozen ``dataclass(...)`` decorator."""
    return {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _frozen(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def _fields(node: ast.ClassDef, aliases: set) -> Iterator[Tuple[str, int]]:
    """``(field, call position)`` of each defaulted field, when ``node`` is
    a frozen dataclass (decorated directly or through one of ``aliases``)."""
    if not any(
        _frozen(d) or (isinstance(d, ast.Name) and d.id in aliases)
        for d in node.decorator_list
    ):
        return
    fields = [
        stmt
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign)
        and "ClassVar" not in ast.unparse(stmt.annotation)
    ]
    for position, stmt in enumerate(fields):
        if stmt.value is not None:
            yield stmt.target.id, position


def _is_set(param: str, position: Optional[int], calls: List[_Call]) -> bool:
    return any(
        splat or param in keywords or (position is not None and position < npos)
        for npos, keywords, splat in calls
    )


def scan(root: Path = ROOT) -> List[str]:
    """Knobs under ``src/repro`` that no scanned call sets, qualified."""
    trees = list(sources(root))
    definitions: Dict[str, ast.AST] = {}
    aliases: Dict[str, set] = {}  # frozen-dataclass aliases of each class's module
    for module, tree in trees:
        if module.split(".")[0] == "repro":
            found = dict(_definitions(tree, module))
            definitions.update(found)
            aliases.update(dict.fromkeys(found, _frozen_aliases(tree)))
    names = _Names(definitions)
    for module, tree in trees:
        names.add(module, tree)
    calls = _Calls(names)
    for module, tree in trees:
        calls.gather(module, tree)
    unset = []
    for qualified, node in definitions.items():
        if isinstance(node, ast.ClassDef):
            for field, position in _fields(node, aliases[qualified]):
                if field not in calls.replaced and not _is_set(
                    field, position, calls.of(qualified)
                ):
                    unset.append(f"{qualified}.{field}")
            continue
        owner_name = qualified.rsplit(".", 1)[0]
        owner = definitions.get(owner_name)
        method = isinstance(owner, ast.ClassDef)
        static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list
        )
        called = owner_name if method and node.name == "__init__" else qualified
        for param, position in _knobs(node, method and not static):
            if not _is_set(param, position, calls.of(called)):
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


def _plant(root: Path, files: Dict[str, str]) -> Path:
    """A scanned tree under ``root``: ``src/repro`` and what calls it."""
    files = {"src/repro/__init__.py": "", **files}
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


def test_a_call_sets_only_the_definition_it_resolves_to(tmp_path):
    root = _plant(tmp_path, {
        "src/repro/a.py": """
            def run(scale=1):
                pass

            def main():
                run(5)
        """,
        "src/repro/b.py": "def run(trace=None, seed=0):\n    pass\n",
        "examples/tour.py": "from repro import a\n\na.run(*[2])\n",
    })
    assert scan(root) == ["repro.b.run.seed", "repro.b.run.trace"]


def test_bench_tests_are_not_scanned(tmp_path):
    root = _plant(tmp_path, {
        "src/repro/a.py": "def run(scale=1):\n    pass\n",
        "bench/tests/test_a.py": "from repro.a import run\n\nrun(scale=2)\n",
    })
    assert scan(root) == ["repro.a.run.scale"]


def test_a_frozen_config_field_only_tests_set_is_listed(tmp_path):
    root = _plant(tmp_path, {
        "src/repro/scenario.py": """
            def parse_spec(parser, spec_type, **fields):
                return spec_type(**fields)
        """,
        "src/repro/config.py": """
            from dataclasses import dataclass, replace
            from typing import ClassVar

            _frozen = dataclass(frozen=True)

            @dataclass(frozen=True)
            class Config:
                name: str
                size: int = 1
                rate: float = 0.5
                seed: int = 0
                limit: int = 3
                model: ClassVar[int] = 7

            @dataclass(frozen=True, slots=True)
            class Other:
                limit: int = 0
                mode: str = "a"

            @_frozen
            class Aliased:
                depth: int = 2

            def tuned():
                base = Config("a", 2)
                return replace(base, rate=0.1), replace(Other(), limit=1)
        """,
        "examples/cli.py": """
            from repro.config import Config
            from repro.scenario import parse_spec

            parse_spec(None, Config, name="b", seed=4)
        """,
    })
    assert scan(root) == [
        "repro.config.Aliased.depth",
        "repro.config.Config.limit",
        "repro.config.Other.mode",
    ]
