"""Availability under failures (paper §4.5 made quantitative).

Crash failures lose only the failed servers' own files (~1/N coverage
each) with zero misroutes; graceful departures with re-homing lose nothing.
"""

from repro.experiments import availability


def test_availability_under_crash_failures(run_once):
    result = run_once(
        lambda: availability.run(
            num_servers=20,
            group_size=5,
            num_files=1_000,
            failures=5,
            graceful=False,
        )
    )
    print()
    print(result.format())
    # Correctness under failure: never a misroute (Section 4.5's "no false
    # positives ... at a degraded performance and coverage level").
    assert all(row["misroutes"] == 0 for row in result.rows)
    # Coverage degrades roughly linearly: each failure loses ~1/N of files.
    coverages = [row["coverage"] for row in result.rows]
    assert coverages[0] == 1.0
    for earlier, later in zip(coverages, coverages[1:]):
        assert later <= earlier
    assert coverages[-1] > 1.0 - 2 * 5 / 20  # bounded loss
    # Latency stays in the same regime — degraded coverage, not collapse.
    latencies = [row["mean_latency_ms"] for row in result.rows]
    assert max(latencies) < 3 * latencies[0]


def test_availability_under_graceful_departures(run_once):
    result = run_once(
        lambda: availability.run(
            num_servers=20,
            group_size=5,
            num_files=800,
            failures=5,
            graceful=True,
        )
    )
    # Re-homing keeps every file reachable (Section 3.1's departures).
    assert all(row["coverage"] == 1.0 for row in result.rows)
    assert all(row["misroutes"] == 0 for row in result.rows)
