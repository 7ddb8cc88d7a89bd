"""Unit tests for the stdlib tail probabilities and quantiles.

``test_stats_oracle.py`` holds them to scipy; these check closed forms
and edge cases and need no scipy.
"""

import math

import pytest

from repro.stats.distributions import chi2_sf, normal_ppf, normal_sf


class TestNormal:
    def test_sf_is_symmetric(self):
        for z in (0.0, 0.5, 1.96, 4.0):
            assert normal_sf(z) + normal_sf(-z) == pytest.approx(1.0)

    def test_sf_keeps_precision_deep_in_the_tail(self):
        # 1 − Φ(40) is 0.0 in floating point; the tail itself is 3.7e-350
        # (below the smallest double), so probe z = 30 instead
        assert normal_sf(30.0) == pytest.approx(4.906713927148187e-198)

    def test_ppf_inverts_sf(self):
        # AS 111 is good to ~3e-9 in the centre and ~1e-6 out to 1e-4
        for p in (1e-4, 0.01, 0.3, 0.5, 0.8, 0.999):
            assert normal_sf(-normal_ppf(p)) == pytest.approx(p, rel=1e-5)

    def test_ppf_is_antisymmetric(self):
        for p in (0.001, 0.2, 0.45):
            assert normal_ppf(p) == pytest.approx(
                -normal_ppf(1 - p), abs=1e-14
            )

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_ppf_rejects_p_outside_the_open_unit_interval(self, p):
        with pytest.raises(ValueError):
            normal_ppf(p)


class TestChi2Sf:
    def test_two_degrees_of_freedom_is_exponential(self):
        for x in (0.1, 1.0, 10.0, 300.0):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2))

    def test_one_degree_of_freedom_is_a_normal_tail(self):
        for x in (0.01, 1.0, 9.0, 100.0):
            assert chi2_sf(x, 1) == pytest.approx(
                2 * normal_sf(math.sqrt(x))
            )

    def test_decreases_in_x_and_increases_in_df(self):
        xs = [0.5, 1, 2, 5, 10, 20, 50]
        for df in range(1, 12):
            tail = [chi2_sf(x, df) for x in xs]
            assert tail == sorted(tail, reverse=True)
            assert all(
                chi2_sf(x, df) < chi2_sf(x, df + 1) for x in xs
            )

    def test_far_tail_does_not_underflow_early(self):
        # e^{-h} alone underflows at h > 745; the tail for df = 40 at
        # x = 1600 is still a normal double
        assert chi2_sf(1600.0, 40) > 0

    def test_non_positive_x_is_certain(self):
        assert chi2_sf(0.0, 3) == 1.0
        assert chi2_sf(-2.0, 4) == 1.0

    def test_nan_propagates(self):
        assert math.isnan(chi2_sf(math.nan, 3))

    @pytest.mark.parametrize("df", [0, -1, 2.5])
    def test_rejects_bad_degrees_of_freedom(self, df):
        with pytest.raises(ValueError):
            chi2_sf(1.0, df)
