"""Executed source lines per operation, by package: the counted ledger's start.

Lines do not move with the host, so two trees compare on any machine in
one run each.  This runs the layered benchmark's own op lists (imported
read-only from ``bench.workloads``) and counts, under ``sys.settrace``,
the lines each timed operation executes in each top-level package of
``src/repro``:

- ``fleet_zipf_lookup``: every timed query, averaged per query;
- ``fleet_churn``: every timed op, averaged per op kind (query, insert,
  delete, rename, sync, join, leave);
- ``gw_hot_lookup`` and ``gw_cold_scan``: every timed tick, averaged per
  looked-up path;
- ``gw_write_mix``: every timed call, averaged per call kind (create,
  delete, rename, a lookup tick of five paths) and the closing flush
  barrier;
- ``wire_mixed``: every RPC of its timed ticks, served by two in-process
  ``MDSNode``s through ``_handle`` (the node's dispatch, without the
  socket, the codec or the node thread), averaged per path a
  ``VERIFY_BATCH`` looks up and per path a ``MUTATE_BATCH`` mutates.

The ``generated`` column counts the lines of code compiled from strings
(a dataclass's ``__init__``, a NamedTuple's ``__new__``) that the op
calls; they lie in no package, so the total leaves them out.

Set-up and warm-up run untraced first, exactly as the benchmark runs them
(so hash memos and L1 arrays are warm).  Line events differ between
Python versions; compare numbers taken with the same interpreter, and
with ``PYTHONHASHSEED=0`` (set-iteration order reaches a few loops).

Usage::

    PYTHONHASHSEED=0 PYTHONPATH=src:. python benchmarks/lines_per_op.py [--seed 7] [--seconds 1]

``--seconds`` sets the op counts as ``python -m bench run --seconds``
does; 6 is the benchmark's own length (EXPERIMENTS.md records that run).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import Callable, Dict, List, Tuple

import repro
from bench.workloads.fleet import FleetChurn, FleetZipfLookup
from bench.workloads.gateway import (
    LOOKUPS_PER_VIRTUAL_S,
    GatewayColdScan,
    GatewayHotLookup,
    GatewayWriteMix,
)
from bench.workloads.wire import (
    BULK_BATCH,
    CLIENT_ORIGIN,
    CLIENT_SENDER,
    DRIVER_ORIGIN,
    WireMixed,
    home_of,
    record_for,
    verify_message,
)
from repro.core.config import GHBAConfig
from repro.metadata.attributes import FileMetadata
from repro.prototype.messages import Message, MessageKind
from repro.prototype.node import MDSNode
from repro.prototype.transport import InProcessTransport
from tests._linecount import lines_executed

REPRO_DIR = os.path.dirname(repro.__file__) + os.sep
CHURN_KINDS = {"q": "query", "i": "insert", "d": "delete", "r": "rename",
               "sync": "sync", "add": "join", "rm": "leave"}
WRITE_MIX_KINDS = {"c": "create", "d": "delete", "r": "rename", "t": "tick",
                   "barrier": "barrier"}
Rows = List[Tuple[str, int, Dict[str, int]]]
#: The key under which ``count`` keeps the generated lines (no package
#: of ``src/repro`` has this name).
GENERATED = "generated"


def count(call: Callable[[], object], into: Dict[str, int]):
    """Runs ``call()``, adds the lines it executed under ``src/repro`` by
    package to ``into``, and the generated lines it called to
    ``into[GENERATED]``, and returns its result."""
    result = []
    packages, generated = lines_executed(
        lambda: result.append(call()), REPRO_DIR, by_package=True, generated=True
    )
    for package, lines in packages.items():
        into[package] = into.get(package, 0) + lines
    into[GENERATED] = into.get(GENERATED, 0) + sum(generated.values())
    return result[0]


def zipf_lookup(seed: int, seconds: float) -> Rows:
    workload = FleetZipfLookup()
    inputs = workload.generate(seed, seconds)
    system = workload.build(inputs, seed, None)
    workload.warm_up(system, inputs)
    lines: Dict[str, int] = {}
    query = system.cluster.query
    for path in inputs["timed"]:
        count(partial(query, path), lines)
    return [("fleet_zipf_lookup query", len(inputs["timed"]), lines)]


def fleet_churn(seed: int, seconds: float) -> Rows:
    """Each timed op of the benchmark's ``FleetChurn.timed`` loop, with its
    arguments made the way that loop makes them."""
    workload = FleetChurn()
    inputs = workload.generate(seed, seconds)
    system = workload.build(inputs, seed, None)
    workload.warm_up(system, inputs)
    cluster = system.cluster
    calls = {
        "q": cluster.query,
        "d": cluster.delete_file,
        "r": cluster.rename_subtree,
        "sync": cluster.synchronize_replicas,
        "add": cluster.add_server,
    }
    lines: Dict[str, Dict[str, int]] = {}
    ops: Dict[str, int] = {}
    inode = len(inputs["paths"])
    transient = None
    for op in inputs["ops"]:
        kind = op[0]
        if kind == "i":
            inode += 1
            meta = FileMetadata(path=op[1], inode=inode)
            call = partial(cluster.insert_file, meta, op[2])
        elif kind == "rm":
            call = partial(cluster.remove_server, transient)
        else:
            call = partial(calls[kind], *op[1:])
        result = count(call, lines.setdefault(kind, {}))
        ops[kind] = ops.get(kind, 0) + 1
        if kind == "add":
            transient = result.server_id
    return [
        (f"fleet_churn {name}", ops[kind], lines[kind])
        for kind, name in CHURN_KINDS.items()
        if kind in ops
    ]


def gateway_lookups(workload, seed: int, seconds: float) -> Rows:
    """Each timed tick of the lookup workloads' ``timed`` loop, on the
    virtual clock that loop keeps."""
    inputs = workload.generate(seed, seconds)
    system = workload.build(inputs, seed, None)
    workload.warm_up(system, inputs)
    lines: Dict[str, int] = {}
    lookup_tick = system.client.lookup_tick
    now = system.now
    lookups = 0
    for tick in inputs["ticks"]:
        count(partial(lookup_tick, tick, now), lines)
        lookups += len(tick)
        now += len(tick) / LOOKUPS_PER_VIRTUAL_S
    return [(f"{workload.name} lookup", lookups, lines)]


def write_mix(seed: int, seconds: float) -> Rows:
    """Each timed call of ``GatewayWriteMix.timed``, then its barrier."""
    workload = GatewayWriteMix()
    inputs = workload.generate(seed, seconds)
    system = workload.build(inputs, seed, None)
    workload.warm_up(system, inputs)
    client = system.client
    calls = {"t": client.lookup_tick, "d": client.delete, "r": client.rename}
    lines: Dict[str, Dict[str, int]] = {}
    ops: Dict[str, int] = {}
    now = system.now
    for op in inputs["ops"]:
        kind = op[0]
        if kind == "c":
            call = partial(client.create, op[1], now, home_id=op[2])
        else:
            call = partial(calls[kind], *op[1:], now)
        count(call, lines.setdefault(kind, {}))
        ops[kind] = ops.get(kind, 0) + 1
        now += workload.CALL_DT_S
    count(partial(client.flush_barrier, now), lines.setdefault("barrier", {}))
    ops["barrier"] = 1
    return [
        (f"gw_write_mix {name}", ops[kind], lines[kind])
        for kind, name in WRITE_MIX_KINDS.items()
        if kind in ops
    ]


def wire_mixed(seed: int, seconds: float) -> Rows:
    """Each RPC of ``WireMixed``'s timed ticks, made the way its client
    makes them, after its populate and warm-up ticks (untraced)."""
    workload = WireMixed()
    inputs = workload.generate(seed, seconds)
    paths = inputs["paths"]
    index_of = {path: index for index, path in enumerate(paths)}
    transport = InProcessTransport()
    nodes: Dict[int, MDSNode] = {}
    exists = dict.fromkeys(paths, True)
    version = acked = 0

    def node(home: int) -> MDSNode:
        if home not in nodes:
            nodes[home] = MDSNode(home, GHBAConfig(), transport)
        return nodes[home]

    def mutate(origin: int, floor: int, mutations: List[dict]) -> Message:
        payload = {"origin": origin, "acked": floor, "mutations": mutations}
        return Message(kind=MessageKind.MUTATE_BATCH, sender=CLIENT_SENDER, payload=payload)

    def rpcs(op: list) -> List[Tuple[str, int, Message]]:
        """``(kind, home, message)`` per RPC of one tick, in send order."""
        nonlocal version, acked
        grouped: Dict[int, list] = {}
        if op[0] == "l":
            for path in op[1]:
                grouped.setdefault(home_of(path), []).append(path)
            return [("VERIFY_BATCH", home, verify_message(CLIENT_SENDER, batch))
                    for home, batch in sorted(grouped.items())]
        for path in op[1]:
            version += 1
            if exists[path]:
                mutation = {"version": version, "op": "delete", "path": path, "record": None}
            else:
                mutation = {"version": version, "op": "create", "path": path,
                            "record": record_for(path, index_of[path])}
            exists[path] = not exists[path]
            grouped.setdefault(home_of(path), []).append(mutation)
        floor, acked = acked, version
        return [("MUTATE_BATCH", home, mutate(CLIENT_ORIGIN, floor, batch))
                for home, batch in sorted(grouped.items())]

    creates: Dict[int, List[dict]] = {}
    for index, path in enumerate(paths):
        creates.setdefault(home_of(path), []).append(
            {"version": index + 1, "op": "create", "path": path,
             "record": record_for(path, index)})
    for home, batch in sorted(creates.items()):
        for start in range(0, len(batch), BULK_BATCH):
            node(home)._handle(mutate(DRIVER_ORIGIN, 0, batch[start:start + BULK_BATCH]))
    for op in inputs["warmup"]:
        for _, home, message in rpcs(op):
            node(home)._handle(message)
    lines: Dict[str, Dict[str, int]] = {"VERIFY_BATCH": {}, "MUTATE_BATCH": {}}
    ops = dict.fromkeys(lines, 0)
    for op in inputs["schedule"]:
        for kind, home, message in rpcs(op):
            count(partial(node(home)._handle, message), lines[kind])
            key = "paths" if kind == "VERIFY_BATCH" else "mutations"
            ops[kind] += len(message.payload[key])
    return [(f"wire_mixed {kind} path", ops[kind], lines[kind]) for kind in lines]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    rows = (
        zipf_lookup(args.seed, args.seconds)
        + fleet_churn(args.seed, args.seconds)
        + gateway_lookups(GatewayHotLookup(), args.seed, args.seconds)
        + gateway_lookups(GatewayColdScan(), args.seed, args.seconds)
        + write_mix(args.seed, args.seconds)
        + wire_mixed(args.seed, args.seconds)
    )
    packages = sorted(
        {package for _, _, counts in rows for package in counts} - {GENERATED}
    )
    print(f"lines per op under src/repro, seed {args.seed}, --seconds {args.seconds}, "
          f"Python {sys.version_info.major}.{sys.version_info.minor}")
    print(f"{'op':<28}{'ops':>7}{'total':>10}"
          + "".join(f"{p:>10}" for p in packages) + f"{GENERATED:>10}")
    for name, count, counts in rows:
        total = sum(counts.get(p, 0) for p in packages)
        cells = "".join(f"{counts.get(p, 0) / count:>10.1f}" for p in packages)
        made = counts.get(GENERATED, 0) / count
        print(f"{name:<28}{count:>7}{total / count:>10.1f}{cells}{made:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
