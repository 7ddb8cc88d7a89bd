"""Unit tests for the rank-based statistics and Shapiro–Wilk.

The cross-checks against scipy take the ``scipy_stats`` fixture and skip
without it; ``test_stats_oracle.py`` holds the wider scipy comparisons.
"""

import math
import random

import pytest

from repro.stats import (
    kendall_tau_b,
    kruskal_wallis,
    median,
    rank_with_ties,
    shapiro_wilk,
)
from repro.stats.ranks import _sw_coefficients


class TestRankWithTies:
    def test_no_ties(self):
        assert rank_with_ties([30, 10, 20]) == [3.0, 1.0, 2.0]

    def test_ties_share_mean_rank(self):
        assert rank_with_ties([5, 5, 1]) == [2.5, 2.5, 1.0]

    def test_all_equal(self):
        assert rank_with_ties([7, 7, 7]) == [2.0, 2.0, 2.0]

    def test_empty(self):
        assert rank_with_ties([]) == []


class TestKendallTau:
    def test_perfect_agreement(self):
        result = kendall_tau_b([1, 2, 3, 4], [10, 20, 30, 40])
        assert result.statistic == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        result = kendall_tau_b([1, 2, 3, 4], [4, 3, 2, 1])
        assert result.statistic == pytest.approx(-1.0)

    def test_matches_scipy_no_ties(self, scipy_stats):
        rng = random.Random(1)
        x = [rng.random() for _ in range(60)]
        y = [rng.random() for _ in range(60)]
        ours = kendall_tau_b(x, y)
        theirs = scipy_stats.kendalltau(x, y)
        assert ours.statistic == pytest.approx(theirs.statistic, abs=1e-9)

    def test_matches_scipy_with_ties(self, scipy_stats):
        rng = random.Random(2)
        x = [rng.randint(0, 5) for _ in range(80)]
        y = [rng.randint(0, 5) for _ in range(80)]
        ours = kendall_tau_b(x, y)
        theirs = scipy_stats.kendalltau(x, y)
        assert ours.statistic == pytest.approx(theirs.statistic, abs=1e-9)

    def test_p_value_small_for_strong_correlation(self):
        x = list(range(50))
        y = [v + 0.01 for v in x]
        assert kendall_tau_b(x, y).p_value < 1e-6

    def test_p_value_large_for_noise(self):
        rng = random.Random(3)
        x = [rng.random() for _ in range(100)]
        y = [rng.random() for _ in range(100)]
        assert kendall_tau_b(x, y).p_value > 0.01

    def test_p_value_does_not_underflow(self):
        # z ≈ 20.9: 1 − Φ(z) rounds to 0.0, the upper tail itself does not
        x = list(range(200))
        y = [v + v % 3 for v in x]
        result = kendall_tau_b(x, y)
        assert result.details["z"] > 20
        assert result.p_value == pytest.approx(
            math.erfc(result.details["z"] / math.sqrt(2)), rel=1e-12
        )
        assert 1e-97 < result.p_value < 1e-96

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau_b([1], [1, 2])

    def test_degenerate_constant_series(self):
        result = kendall_tau_b([1, 1, 1], [1, 2, 3])
        assert result.p_value == 1.0


class TestKruskalWallis:
    def test_matches_scipy(self, scipy_stats):
        rng = random.Random(4)
        groups = [
            [rng.gauss(mu, 1) for _ in range(20)] for mu in (0, 0.5, 2.0)
        ]
        ours = kruskal_wallis(groups)
        theirs = scipy_stats.kruskal(*groups)
        assert ours.statistic == pytest.approx(theirs.statistic, rel=1e-9)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-6)

    def test_matches_scipy_with_ties(self, scipy_stats):
        rng = random.Random(5)
        groups = [
            [rng.randint(0, 4) for _ in range(25)] for _ in range(4)
        ]
        ours = kruskal_wallis(groups)
        theirs = scipy_stats.kruskal(*groups)
        assert ours.statistic == pytest.approx(theirs.statistic, rel=1e-9)

    def test_detects_separated_groups(self):
        groups = [[1, 2, 3, 4, 5], [11, 12, 13, 14, 15]]
        assert kruskal_wallis(groups).p_value < 0.01

    def test_identical_groups_not_significant(self):
        rng = random.Random(6)
        base = [rng.random() for _ in range(30)]
        assert kruskal_wallis([base, list(base)]).p_value > 0.5

    def test_empty_groups_dropped(self):
        result = kruskal_wallis([[1, 2, 3], [], [4, 5, 6]])
        assert result.details["df"] == 1

    def test_single_group_rejected(self):
        with pytest.raises(ValueError):
            kruskal_wallis([[1, 2, 3]])

    def test_group_medians_in_details(self):
        result = kruskal_wallis([[1, 2, 3], [10, 20, 30]])
        assert result.details["group_medians"] == [2, 20]


class TestMedian:
    def test_odd(self):
        assert median([3, 1, 2]) == 2

    def test_even_interpolates(self):
        assert median([1, 2, 3, 4]) == 2.5

    def test_single(self):
        assert median([9]) == 9

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            median([])


class TestShapiroWilk:
    def test_rejects_uniform_large_sample(self):
        rng = random.Random(7)
        data = [rng.random() for _ in range(200)]
        assert shapiro_wilk(data).p_value < 0.01

    def test_accepts_normal_sample(self):
        rng = random.Random(8)
        data = [rng.gauss(0, 1) for _ in range(100)]
        assert shapiro_wilk(data).p_value > 0.001

    def test_too_few_observations(self):
        with pytest.raises(ValueError):
            shapiro_wilk([1.0, 2.0])

    def test_zero_range_is_one_one_and_silent(self, recwarn, capfd):
        result = shapiro_wilk([4.5] * 12)
        assert (result.statistic, result.p_value) == (1.0, 1.0)
        assert result.details == {"zero_range": True}
        assert len(recwarn) == 0
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_exact_fit_is_one_one(self, n):
        # data equal to the weights: 1 − W rounds to 0, whose log is
        # undefined, so W = 1 is answered before the p-value transform
        a = _sw_coefficients(n)
        result = shapiro_wilk(
            [-c for c in a] + [0.0] * (n - 2 * len(a)) + a[::-1]
        )
        assert (result.statistic, result.p_value) == (1.0, 1.0)

    def test_three_points_use_the_exact_formula(self):
        # n = 3: p = (6/π)(asin √W − π/3); evenly spaced points give W = 1
        result = shapiro_wilk([1.0, 2.0, 3.0])
        assert result.statistic == pytest.approx(1.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0, abs=1e-12)

    def test_w_is_shift_and_scale_invariant(self):
        rng = random.Random(9)
        data = [rng.expovariate(1.0) for _ in range(60)]
        base = shapiro_wilk(data)
        moved = shapiro_wilk([1e9 + 1000.0 * v for v in data])
        assert moved.statistic == pytest.approx(base.statistic, abs=1e-9)
        assert moved.p_value == pytest.approx(base.p_value, rel=1e-6)

    def test_w_lies_in_unit_interval(self):
        rng = random.Random(10)
        for n in (3, 4, 11, 12, 50, 5001):
            result = shapiro_wilk([rng.random() for _ in range(n)])
            assert 0 < result.statistic <= 1
            assert 0 <= result.p_value <= 1
