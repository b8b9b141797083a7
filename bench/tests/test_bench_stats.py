import pytest

import stats


class TestTailPercentile:
    def test_needs_ten_samples_beyond_p90(self):
        assert stats.tail_percentile(range(99), 90) is None
        assert stats.tail_percentile(range(100), 90) == 89.0

    def test_samples_beyond_counts_above_nearest_rank(self):
        assert stats.samples_beyond(100, 90) == 10
        assert stats.samples_beyond(99, 90) == 9
        assert stats.samples_beyond(200, 95) == 10

    def test_nearest_rank_ignores_input_order(self):
        xs = list(range(200, 0, -1))
        assert stats.tail_percentile(xs, 90) == 180.0

    def test_rejects_non_tail_percentile(self):
        with pytest.raises(ValueError):
            stats.tail_percentile(range(100), 50)


class TestMedian:
    def test_odd_and_even(self):
        assert stats.median([3, 1, 2]) == 2.0
        assert stats.median([4, 1, 3, 2]) == 2.5

    def test_always_reported_for_few_samples(self):
        assert stats.median([7.0]) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            stats.median([])
