"""CLI for the experiment harness.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig06
    python -m repro.experiments all        # every experiment, CI-scale
    python -m repro.experiments --check DIR [NAME ...]   # exit 1 on a diff

Each experiment also runs standalone (``python -m
repro.experiments.fig06``); this dispatcher adds discovery, an
everything-at-once mode and ``--check`` of what each named experiment (all
by default) prints against ``DIR/NAME.txt``.  Recording is the one-name
command redirected: ``python -m repro.experiments NAME > DIR/NAME.txt``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import sys
from itertools import takewhile
from pathlib import Path
from typing import Dict, Sequence

#: name -> (module, one-line description)
REGISTRY: Dict[str, str] = {
    "table01": "Table 1  — qualitative scheme comparison",
    "table01_quantified": "Table 1, quantified — measured columns per scheme",
    "tables_traces": "Tables 3-4 — intensified workload statistics",
    "fig06": "Figure 6 — normalized throughput vs. group size M",
    "fig07": "Figure 7 — optimal M vs. number of MDSs",
    "fig08_10": "Figures 8-10 — latency vs. ops, HBA vs. G-HBA",
    "fig11": "Figure 11 — replicas migrated on MDS join",
    "fig12": "Figure 12 — latency of updating stale replicas",
    "fig13": "Figure 13 — % of queries served per level",
    "fig14": "Figure 14 — prototype query latency",
    "fig15": "Figure 15 — messages when adding nodes",
    "table05": "Table 5 — relative memory overhead per MDS",
    "rename_cost": "Rename/resize migration: hashing vs. G-HBA",
    "availability": "Availability under crash failures vs. departures",
    "scalability": "Scalability sweep — per-MDS cost vs. system size",
    "ablation_lru": "Ablation — L1 LRU capacity",
    "ablation_updates": "Ablation — XOR update threshold",
    "ablation_policies": "Ablation — L1 replacement policy",
    "ablation_cooperative": "Ablation — cooperative L1 caching",
    "ablation_bits": "Ablation — Bloom filter bit/file ratio",
}


def run_experiment(name: str, extra: Sequence[str] = ()) -> None:
    module = importlib.import_module(f"repro.experiments.{name}")
    # Experiments whose main() takes an argv receive pass-through options
    # (e.g. --trace-out); zero-argument mains accept none.
    if not inspect.signature(module.main).parameters:
        if extra:
            raise SystemExit(
                f"{name} takes no extra options (got {' '.join(extra)})"
            )
        print(f"=== {name}: {REGISTRY[name]} ===")
        module.main()
    else:
        print(f"=== {name}: {REGISTRY[name]} ===")
        module.main(list(extra))
    print()


def check(directory: str, names: Sequence[str]) -> int:
    """Compare each experiment's stdout with ``DIR/NAME.txt`` byte for
    byte; 1 when a file is missing or differs."""
    failed = 0
    for name in names:
        path, out = Path(directory) / f"{name}.txt", io.StringIO()
        with contextlib.redirect_stdout(out):
            run_experiment(name)
        printed = out.getvalue().encode("utf-8")
        recorded = path.read_bytes() if path.is_file() else None
        if printed != recorded:
            failed += 1
            if recorded is None:
                print(f"FAILED: {path}: no recorded output")
                continue
            pairs = zip(printed.splitlines(True), recorded.splitlines(True))
            same = len(list(takewhile(lambda pair: pair[0] == pair[1], pairs)))
            print(f"FAILED: {path}: first difference at line {same + 1}")
    print(f"{len(names)} experiment(s) checked")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment name, 'list' or 'all'",
    )
    parser.add_argument("--check", metavar="DIR", help="compare with DIR/NAME.txt")
    args, extra = parser.parse_known_args(argv)
    if args.check:
        names = [args.experiment, *extra] if args.experiment else list(REGISTRY)
        if not set(names) <= REGISTRY.keys():
            parser.error(f"unknown experiment in {' '.join(names)}")
        return check(args.check, names)
    if args.experiment is None:
        parser.error("name an experiment, 'list' or 'all'")
    if args.experiment == "list":
        width = max(len(name) for name in REGISTRY)
        for name, description in REGISTRY.items():
            print(f"{name.ljust(width)}  {description}")
        return 0
    if args.experiment == "all":
        for name in REGISTRY:
            run_experiment(name)
        return 0
    if args.experiment not in REGISTRY:
        print(
            f"unknown experiment {args.experiment!r}; "
            "run 'python -m repro.experiments list'",
            file=sys.stderr,
        )
        return 2
    run_experiment(args.experiment, extra)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
