"""CI gate: tracing overhead on the gateway bench stays under 10%.

Runs the same seeded gateway bench twice — once with the null tracer,
once with a :class:`~repro.obs.trace.CollectingTracer` — and compares
CPU time (``time.process_time``, best-of-N, so scheduler noise on
shared CI runners does not flake the gate).  Also asserts the
zero-overhead contract the timing gate presumes: both runs must produce
bit-identical bench statistics.

Usage::

    PYTHONPATH=src python benchmarks/obs_overhead.py [--max-overhead 0.10]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.gateway.scenario import ScenarioSpec
from repro.gateway.scenarios import run_shield
from repro.obs.trace import CollectingTracer


def _spec(ops: int) -> ScenarioSpec:
    return ScenarioSpec(
        servers=8, group_size=4, files=800, ops=ops, clients=6,
        profile="HP", seed=7, cache_capacity=2048, lease_ttl_s=5.0,
        rate_per_s=float(ops), hot_threshold=16, top=5, chaos=False,
        chaos_start_s=0.2, chaos_window_s=0.5,
    )


def _stats(ops: int, tracer) -> dict:
    return run_shield(_spec(ops), tracer=tracer).stats


def _timed(ops: int, make_tracer) -> float:
    started = time.process_time()
    run_shield(_spec(ops), tracer=make_tracer())
    return time.process_time() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ops", type=int, default=4000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--max-overhead", type=float, default=0.10)
    args = parser.parse_args(argv)

    plain = _stats(args.ops, None)
    traced = _stats(args.ops, CollectingTracer())
    if plain != traced:
        diff = {k for k in plain if plain[k] != traced.get(k)}
        print(f"FAIL: tracing perturbed bench stats: {sorted(diff)}")
        return 1
    print("bench stats bit-identical with tracing on and off")

    _timed(args.ops, lambda: None)  # warm-up
    # Interleave the two variants so load drift on a shared runner hits
    # both equally instead of biasing whichever phase ran second.
    base_times, traced_times = [], []
    for _ in range(args.repeats):
        base_times.append(_timed(args.ops, lambda: None))
        traced_times.append(_timed(args.ops, CollectingTracer))
    base = min(base_times)
    with_tracing = min(traced_times)
    overhead = with_tracing / base - 1.0
    print(
        f"cpu time: base {base:.3f}s, traced {with_tracing:.3f}s, "
        f"overhead {overhead:+.1%} (gate: < {args.max_overhead:.0%})"
    )
    if overhead >= args.max_overhead:
        print("FAIL: tracing overhead above the gate")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
