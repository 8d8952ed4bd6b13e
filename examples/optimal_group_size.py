#!/usr/bin/env python3
"""Explore the optimal group size model (paper Section 3.3, Eqs. 2-4).

The central design knob of G-HBA is M, the maximum group size: larger M
means fewer Bloom filter replicas per MDS (memory win) but lower local hit
rates and wider multicasts (latency loss).  This example walks the
normalized-throughput benefit function that resolves the tradeoff:

1. print the Gamma(M) curve for a 30-server system and mark the optimum;
2. show how the optimum shifts with system size (Figure 7);
3. show how offered load moves it (why RES's optimum is below HP's);
4. decompose the latency model at the optimum.

Run:  python examples/optimal_group_size.py [--servers 30]
"""

import argparse
import dataclasses

from repro.core.optimal import (
    TRACE_MODELS,
    normalized_throughput,
    optimal_group_size,
    space_overhead,
    throughput_curve,
)


def ascii_curve(pairs, width=46):
    """Render (M, Gamma) pairs as a bar chart."""
    peak = max(value for _, value in pairs) or 1.0
    lines = []
    for m, value in pairs:
        bar = "#" * int(value / peak * width)
        lines.append(f"  M={m:<3} {value:7.3f} {bar}")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--servers", type=int, default=30)
    args = parser.parse_args()
    n = args.servers
    model = TRACE_MODELS["HP"]

    print(f"Gamma(M) for N={n} under the HP workload model:")
    curve = throughput_curve(n, model, max_group_size=min(15, n - 1))
    print(ascii_curve(curve))
    best = optimal_group_size(n, model, max_group_size=min(20, n - 1))
    print(f"\noptimal M = {best}  (paper, N=30: M=6)")

    print("\nOptimal M vs. system size (Figure 7):")
    for size in (10, 30, 60, 100, 150, 200):
        m = optimal_group_size(size, model, max_group_size=25)
        print(f"  N={size:<4} M*={m:<3} ratio={m / size:.3f}")

    print("\nOffered load moves the optimum (why RES < HP at N=30):")
    for scale in (0.5, 1.0, 1.5, 2.0):
        loaded = dataclasses.replace(
            model, arrivals_total_per_s=model.arrivals_total_per_s * scale
        )
        m = optimal_group_size(n, loaded, max_group_size=20)
        print(f"  load x{scale:<4} M*={m}")

    print(f"\nDecomposition at N={n}, M={best}:")
    theta = model.theta(n, best)
    p1, p2, p3, p4 = model.level_probabilities(n, best)
    print(f"  replicas per MDS (theta)     : {theta:.2f}")
    print(f"  space overhead (N-M)/M       : {space_overhead(n, best):.2f}")
    print(f"  served at L1/L2/L3/L4        : "
          f"{p1:.2f} / {p2:.2f} / {p3:.2f} / {p4:.3f}")
    print(f"  uncongested delay            : "
          f"{model.query_delay_ms(n, best):.3f} ms")
    print(f"  per-server utilization       : "
          f"{model.utilization(n, best):.2f}")
    print(f"  congested latency (U_laten)  : "
          f"{model.latency_ms(n, best):.3f} ms")
    print(f"  Gamma                        : "
          f"{normalized_throughput(n, best, model):.3f}")


if __name__ == "__main__":
    main()
