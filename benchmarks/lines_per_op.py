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
  barrier.

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
from typing import Callable, Dict, List, Tuple

import repro
from bench.workloads.fleet import FleetChurn, FleetZipfLookup
from bench.workloads.gateway import (
    LOOKUPS_PER_VIRTUAL_S,
    GatewayColdScan,
    GatewayHotLookup,
    GatewayWriteMix,
)
from repro.metadata.attributes import FileMetadata

REPRO_DIR = os.path.dirname(repro.__file__) + os.sep
CHURN_KINDS = {"q": "query", "i": "insert", "d": "delete", "r": "rename",
               "sync": "sync", "add": "join", "rm": "leave"}
WRITE_MIX_KINDS = {"c": "create", "d": "delete", "r": "rename", "t": "tick",
                   "barrier": "barrier"}
Rows = List[Tuple[str, int, Dict[str, int]]]


class LineCounter:
    """Counts line events under ``src/repro`` by file while running."""

    def __init__(self) -> None:
        self.files: Dict[str, int] = {}

    def _trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(REPRO_DIR):
            return None
        if event == "line":
            self.files[filename] = self.files.get(filename, 0) + 1
        return self._trace

    def run(self, call: Callable, *args):
        previous = sys.gettrace()
        sys.settrace(self._trace)
        try:
            return call(*args)
        finally:
            sys.settrace(previous)

    def by_package(self) -> Dict[str, int]:
        packages: Dict[str, int] = {}
        for filename, count in self.files.items():
            head = os.path.relpath(filename, REPRO_DIR).split(os.sep)[0]
            package = head[:-3] if head.endswith(".py") else head
            packages[package] = packages.get(package, 0) + count
        return packages


def zipf_lookup(seed: int, seconds: float) -> Rows:
    workload = FleetZipfLookup()
    inputs = workload.generate(seed, seconds)
    system = workload.build(inputs, seed, None)
    workload.warm_up(system, inputs)
    counter = LineCounter()
    query = system.cluster.query
    for path in inputs["timed"]:
        counter.run(query, path)
    return [("fleet_zipf_lookup query", len(inputs["timed"]), counter.by_package())]


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
    counters: Dict[str, LineCounter] = {}
    ops: Dict[str, int] = {}
    inode = len(inputs["paths"])
    transient = None
    for op in inputs["ops"]:
        kind = op[0]
        if kind == "i":
            inode += 1
            call, args = cluster.insert_file, (FileMetadata(path=op[1], inode=inode), op[2])
        elif kind == "rm":
            call, args = cluster.remove_server, (transient,)
        else:
            call, args = calls[kind], op[1:]
        result = counters.setdefault(kind, LineCounter()).run(call, *args)
        ops[kind] = ops.get(kind, 0) + 1
        if kind == "add":
            transient = result.server_id
    return [
        (f"fleet_churn {name}", ops[kind], counters[kind].by_package())
        for kind, name in CHURN_KINDS.items()
        if kind in ops
    ]


def gateway_lookups(workload, seed: int, seconds: float) -> Rows:
    """Each timed tick of the lookup workloads' ``timed`` loop, on the
    virtual clock that loop keeps."""
    inputs = workload.generate(seed, seconds)
    system = workload.build(inputs, seed, None)
    workload.warm_up(system, inputs)
    counter = LineCounter()
    lookup_tick = system.client.lookup_tick
    now = system.now
    lookups = 0
    for tick in inputs["ticks"]:
        counter.run(lookup_tick, tick, now)
        lookups += len(tick)
        now += len(tick) / LOOKUPS_PER_VIRTUAL_S
    return [(f"{workload.name} lookup", lookups, counter.by_package())]


def write_mix(seed: int, seconds: float) -> Rows:
    """Each timed call of ``GatewayWriteMix.timed``, then its barrier."""
    workload = GatewayWriteMix()
    inputs = workload.generate(seed, seconds)
    system = workload.build(inputs, seed, None)
    workload.warm_up(system, inputs)
    client = system.client
    calls = {"t": client.lookup_tick, "d": client.delete, "r": client.rename}
    counters: Dict[str, LineCounter] = {}
    ops: Dict[str, int] = {}
    now = system.now
    for op in inputs["ops"]:
        kind = op[0]
        counter = counters.setdefault(kind, LineCounter())
        if kind == "c":
            counter.run(lambda: client.create(op[1], now, home_id=op[2]))
        else:
            counter.run(calls[kind], *op[1:], now)
        ops[kind] = ops.get(kind, 0) + 1
        now += workload.CALL_DT_S
    counters["barrier"] = LineCounter()
    counters["barrier"].run(client.flush_barrier, now)
    ops["barrier"] = 1
    return [
        (f"gw_write_mix {name}", ops[kind], counters[kind].by_package())
        for kind, name in WRITE_MIX_KINDS.items()
        if kind in ops
    ]


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
    )
    packages = sorted({package for _, _, counts in rows for package in counts})
    print(f"lines per op under src/repro, seed {args.seed}, --seconds {args.seconds}, "
          f"Python {sys.version_info.major}.{sys.version_info.minor}")
    print(f"{'op':<28}{'ops':>7}{'total':>10}" + "".join(f"{p:>10}" for p in packages))
    for name, count, counts in rows:
        cells = "".join(f"{counts.get(p, 0) / count:>10.1f}" for p in packages)
        print(f"{name:<28}{count:>7}{sum(counts.values()) / count:>10.1f}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
