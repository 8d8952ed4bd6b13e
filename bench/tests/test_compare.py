from bench.compare import samples, verdict_for


def test_ok_when_medians_agree_within_the_bound():
    verdict, worsening, spread = verdict_for([100, 101, 99], [104, 105, 103], "lower", 0.10)
    assert verdict == "ok"
    assert 0.03 < worsening < 0.05
    assert spread < 0.10


def test_worse_when_the_median_moves_past_the_bound():
    assert verdict_for([100, 101, 99], [115, 116, 114], "lower", 0.10)[0] == "worse"
    assert verdict_for([100, 101, 99], [85, 86, 84], "higher", 0.10)[0] == "worse"
    assert verdict_for([100, 101, 99], [85, 86, 84], "lower", 0.10)[0] == "ok"


def test_unresolved_when_the_spread_exceeds_the_bound():
    noisy = [80, 100, 120, 140, 60]
    assert verdict_for(noisy, [100, 101, 99, 100, 100], "lower", 0.10)[0] == "unresolved"
    # ... unless every run of B reads better than every run of A.
    assert verdict_for(noisy, [50, 51, 49, 50, 50], "lower", 0.10)[0] == "ok"


def test_a_sample_is_the_value_each_run_printed():
    run = lambda value: {"w": {"metrics": {"m": value}, "per_pass": {"m": [1.0, 2.0, 3.0]}}}
    assert samples({"runs": [run(5.0), {}, run(7.0)]}, "w", "m") == [5.0, 7.0]
    assert samples({"runs": [run(5.0)]}, "w", "m") == [5.0]
