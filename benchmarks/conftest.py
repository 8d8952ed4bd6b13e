"""Benchmark harness configuration.

Every benchmark regenerates one paper table/figure via its experiment
module, asserts the paper's *shape* claims (who wins, by roughly what
factor, where crossovers fall — absolute numbers are not expected to match
the authors' 2007 testbed), and reports wall time through pytest-benchmark.

Heavy trace-driven experiments run one round (``run_once``); the regenerated
rows are printed (run with ``-s`` to see them live).

Wall-clock throughput and per-layer cost are not measured here: that is
the layered benchmark's job (``python -m bench run``, ``bench/README.md``).
"""

from __future__ import annotations

import pytest


@pytest.fixture
def run_once(benchmark):
    """Benchmark a callable with a single round and return its result."""

    def _run(func, *args, **kwargs):
        return benchmark.pedantic(
            func, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return _run
