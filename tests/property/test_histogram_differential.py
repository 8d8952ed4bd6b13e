"""Differential oracle: a histogram child vs the frozen ``LatencyRecorder``.

A :class:`repro.obs.registry.HistogramChild` keeps its own stream — count,
sum, min, max and a seeded reservoir — where it used to wrap
``repro.sim.stats.LatencyRecorder``.  ``tests/_reference_hba.py`` holds a
verbatim copy of that class.  This suite feeds both the same seeded
streams, shorter and longer than the reservoir, and compares with ``==``
at checkpoints along the way: count, sum, min, max, ``summary()`` and
``percentile(p)`` for p in {0, 1, 25, 50, 95, 99, 100}.  Equal sums mean
the same float addition order; equal interior percentiles past the
reservoir size mean the same ``_randbelow`` draws.
"""

import random

import pytest

from repro.obs.registry import RESERVOIR_SIZE, MetricsRegistry

from tests._reference_hba import LatencyRecorder

PERCENTILES = (0, 1, 25, 50, 95, 99, 100)
#: Stream lengths either side of the reservoir size.
LENGTHS = (1_000, 3 * RESERVOIR_SIZE + 17)
SEEDS = (0, 7)


def _stream(seed, length):
    """Latency-like values: mostly exponential, some exact repeats and zeros."""
    rng = random.Random(1_000 + seed)
    values = []
    for _ in range(length):
        draw = rng.random()
        if draw < 0.05:
            values.append(0.0)
        elif draw < 0.2 and values:
            values.append(rng.choice(values))
        else:
            values.append(rng.expovariate(1 / 3.0))
    return values


def _observables(recorder):
    return (
        recorder.count,
        recorder.minimum,
        recorder.maximum,
        recorder.mean,
        recorder.summary(),
        [recorder.percentile(p) for p in PERCENTILES],
    )


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("seed", SEEDS)
def test_histogram_child_matches_frozen_recorder(seed, length):
    child = MetricsRegistry().histogram("d_ms", seed=seed).labels()
    reference = LatencyRecorder(seed=seed)
    checkpoints = {0, 1, RESERVOIR_SIZE - 1, RESERVOIR_SIZE, RESERVOIR_SIZE + 1, length}
    assert _observables(child) == _observables(reference)
    for observed, value in enumerate(_stream(seed, length), start=1):
        child.observe(value)
        reference.record(value)
        if observed in checkpoints or observed % 997 == 0:
            assert child.sum == reference.total
            assert _observables(child) == _observables(reference)
    assert child.count == length
    assert sum(child.bucket_counts) == length
