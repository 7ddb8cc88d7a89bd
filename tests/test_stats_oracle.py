"""The stdlib ports in ``repro.stats`` held to scipy, their oracle.

scipy is a test-only dependency: ``repro.stats`` ports what the §7
battery used of it — Shapiro–Wilk (Royston's AS R94, which scipy wraps),
the χ² survival function and the log-factorials of the Monte-Carlo
Fisher test.  Each port must agree with scipy within 1e-10 (relative for
p-values).  The module is skipped where scipy is not installed.
"""

import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.stats import chi_square, kruskal_wallis, shapiro_wilk
from repro.stats.contingency import _log_factorials
from repro.stats.distributions import chi2_sf
from repro.stats.ranks import _sw_coefficients

scipy_stats = pytest.importorskip("scipy.stats")
special = pytest.importorskip("scipy.special")

TOLERANCE = 1e-10


def scipy_shapiro(values):
    """scipy's (W, p), without its zero-range and n > 5000 warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = scipy_stats.shapiro(values)
    return float(result.statistic), float(result.pvalue)


def assert_shapiro_matches(values):
    ours = shapiro_wilk(values)
    w, p = scipy_shapiro(values)
    assert ours.statistic == pytest.approx(w, rel=0, abs=TOLERANCE)
    # n = 3's exact p is (6/π)(asin √W − π/3), which is pure rounding
    # noise as W → 0.75; elsewhere p is compared relatively
    floor = 1e-14 if len(values) == 3 else 0
    assert ours.p_value == pytest.approx(p, rel=TOLERANCE, abs=floor)


def samples(rng, n):
    """Seeded samples of several shapes, ties and offsets included."""
    return [
        [rng.gauss(0, 1) for _ in range(n)],
        [rng.random() for _ in range(n)],
        [rng.expovariate(1.0) ** 3 for _ in range(n)],
        [rng.lognormvariate(0, 2) for _ in range(n)],
        [float(rng.randint(0, 3)) for _ in range(n)],
        [1e6 + rng.gauss(0, 1) for _ in range(n)],
    ]


class TestShapiroWilk:
    @pytest.mark.parametrize("seed", range(5))
    def test_three_points_exact_formula(self, seed):
        rng = random.Random(seed)
        for values in samples(rng, 3):
            if len(set(values)) > 1:
                assert_shapiro_matches(values)

    @pytest.mark.parametrize("n", range(4, 12))
    def test_small_sample_branch(self, n):
        rng = random.Random(n)
        for values in samples(rng, n):
            assert_shapiro_matches(values)

    @pytest.mark.parametrize("n", [12, 30, 195, 1000])
    def test_large_sample_branch(self, n):
        rng = random.Random(100 + n)
        for values in samples(rng, n):
            assert_shapiro_matches(values)

    def test_ties(self):
        rng = random.Random(7)
        for n in (5, 20, 195):
            assert_shapiro_matches(
                [float(rng.randint(0, 1)) for _ in range(n)]
            )
            assert_shapiro_matches([0.0] * (n - 1) + [1.0])

    def test_beyond_5000_observations(self):
        rng = random.Random(8)
        for values in samples(rng, 5200)[:3]:
            assert_shapiro_matches(values)

    def test_zero_range_agrees(self):
        ours = shapiro_wilk([2.0] * 7)
        assert (ours.statistic, ours.p_value) == scipy_shapiro([2.0] * 7)

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 20])
    def test_sample_fitting_the_weights_exactly(self, n):
        # 1 − W rounds to 0 here; scipy's log(0) = −inf gives p = 1
        a = _sw_coefficients(n)
        assert_shapiro_matches(
            [-c for c in a] + [0.0] * (n - 2 * len(a)) + a[::-1]
        )

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=3, max_size=300,
            ),
            st.lists(st.integers(min_value=-3, max_value=3),
                     min_size=3, max_size=300),
            st.lists(
                st.floats(min_value=0, max_value=1e-3, allow_nan=False),
                min_size=3, max_size=40,
            ).map(lambda xs: [1e4 + x for x in xs]),
        )
    )
    def test_property_random_and_degenerate_samples(self, values):
        assert_shapiro_matches(values)


class TestChi2Tail:
    XS = [10 ** (k / 10) for k in range(-30, 31)]  # 1e-3 … 1e3

    @pytest.mark.parametrize("df", range(1, 51))
    def test_sf_matches_scipy(self, df):
        for x in self.XS:
            assert chi2_sf(x, df) == pytest.approx(
                float(scipy_stats.chi2.sf(x, df)), rel=TOLERANCE
            )

    def test_kruskal_wallis_p_matches_scipy(self):
        rng = random.Random(11)
        for k in range(2, 8):
            groups = [
                [rng.gauss(mu / 2, 1) for _ in range(rng.randint(5, 40))]
                for mu in range(k)
            ]
            ours = kruskal_wallis(groups)
            theirs = scipy_stats.kruskal(*groups)
            assert ours.p_value == pytest.approx(theirs.pvalue, rel=TOLERANCE)

    def test_chi_square_p_matches_scipy(self):
        rng = random.Random(12)
        for rows in range(2, 7):
            table = [
                [rng.randint(1, 60), rng.randint(1, 60)] for _ in range(rows)
            ]
            ours = chi_square(table)
            theirs = scipy_stats.chi2_contingency(table, correction=False)
            assert ours.p_value == pytest.approx(theirs.pvalue, rel=TOLERANCE)


class TestLogFactorials:
    def test_lookup_matches_gammaln(self):
        table = _log_factorials(2000)
        for k in range(2001):
            assert table[k] == pytest.approx(
                float(special.gammaln(k + 1)), rel=TOLERANCE, abs=1e-12
            )
