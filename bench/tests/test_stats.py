import pytest

from bench.stats import percentile, quartiles, samples_beyond, spread


def test_percentile_is_nearest_rank():
    values = [15, 20, 35, 40, 50]
    assert percentile(values, 0) == 15
    assert percentile(values, 30) == 20
    assert percentile(values, 40) == 20
    assert percentile(values, 50) == 35
    assert percentile(values, 100) == 50


def test_percentile_ignores_input_order_and_handles_one_sample():
    assert percentile([3, 1, 2], 50) == 2
    assert percentile([7.5], 0) == percentile([7.5], 99) == 7.5


def test_percentile_of_100_samples_leaves_one_beyond_p99():
    values = list(range(1, 101))
    assert percentile(values, 99) == 99
    assert samples_beyond(100, 99) == 1
    assert samples_beyond(1200, 99) == 12


@pytest.mark.parametrize("bad", [-1, 100.5])
def test_percentile_rejects_bad_p(bad):
    with pytest.raises(ValueError):
        percentile([1, 2, 3], bad)


def test_empty_samples_are_errors_not_zeros():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        quartiles([])


def test_quartiles_and_spread():
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    q1, q2, q3 = quartiles([1, 2, 3, 4, 5, 6, 7])
    assert (q1, q2, q3) == (2.0, 4.0, 6.0)
    assert spread([1, 2, 3, 4, 5, 6, 7]) == 1.0
    assert spread([5, 5, 5]) == 0.0
