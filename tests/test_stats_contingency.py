"""Unit tests for χ² and the from-scratch r×c Fisher exact test.

The cross-checks against scipy take the ``scipy_stats`` fixture and skip
without it.
"""

import pytest

from repro.stats import chi_square, fisher_exact_rxc


class TestChiSquare:
    def test_matches_scipy(self, scipy_stats):
        table = [[10, 20], [20, 10], [5, 25]]
        ours = chi_square(table)
        theirs = scipy_stats.chi2_contingency(table, correction=False)
        assert ours.statistic == pytest.approx(theirs.statistic, rel=1e-9)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-6)

    def test_independent_table_not_significant(self):
        assert chi_square([[10, 10], [20, 20]]).p_value > 0.9

    def test_dependent_table_significant(self):
        assert chi_square([[30, 0], [0, 30]]).p_value < 1e-10

    def test_df_in_details(self):
        result = chi_square([[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 1, 1]])
        assert result.details["df"] == 6

    def test_zero_margin_rejected(self):
        with pytest.raises(ValueError):
            chi_square([[0, 0], [1, 2]])

    def test_negative_cell_rejected(self):
        with pytest.raises(ValueError):
            chi_square([[1, -1], [2, 3]])

    @pytest.mark.parametrize("table", [[[1, 2]], [[1], [2]]])
    def test_no_degrees_of_freedom_rejected(self, table):
        with pytest.raises(ValueError):
            chi_square(table)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            chi_square([[1, 2], [3]])


class TestFisherExact2x2:
    """The 2×2 case must agree with scipy's two-sided fisher_exact."""

    @pytest.mark.parametrize(
        "table",
        [
            [[3, 7], [8, 2]],
            [[1, 9], [9, 1]],
            [[5, 5], [5, 5]],
            [[12, 3], [4, 11]],
            [[0, 10], [10, 0]],
            [[2, 0], [1, 7]],
        ],
    )
    def test_matches_scipy(self, table, scipy_stats):
        ours = fisher_exact_rxc(table)
        _, p = scipy_stats.fisher_exact(table, alternative="two-sided")
        assert ours.details["method"] == "exact"
        assert ours.p_value == pytest.approx(p, rel=1e-9)


class TestFisherExactRxC:
    def test_exact_3x2(self):
        # Freeman–Halton on a small 3x2 table; sanity: perfect dependence
        # on a diagonal-ish pattern must be significant
        result = fisher_exact_rxc([[8, 0], [0, 8], [4, 4]])
        assert result.details["method"] == "exact"
        assert result.p_value < 0.01

    def test_independent_rxc_not_significant(self):
        result = fisher_exact_rxc([[5, 5], [6, 6], [4, 4]])
        assert result.p_value > 0.5

    def test_p_value_bounded(self):
        result = fisher_exact_rxc([[2, 2], [2, 2]])
        assert 0 < result.p_value <= 1

    def test_zero_rows_and_columns_dropped(self):
        with_zero = fisher_exact_rxc([[3, 7, 0], [8, 2, 0], [0, 0, 0]])
        without = fisher_exact_rxc([[3, 7], [8, 2]])
        assert with_zero.p_value == pytest.approx(without.p_value)

    def test_degenerate_after_dropping_rejected(self):
        with pytest.raises(ValueError):
            fisher_exact_rxc([[5, 0], [3, 0]])

    def test_monte_carlo_agrees_with_exact(self):
        table = [[6, 2], [3, 7], [2, 6]]
        exact = fisher_exact_rxc(table)
        monte = fisher_exact_rxc(
            table, max_exact_tables=1, monte_carlo_samples=60_000
        )
        assert exact.details["method"] == "exact"
        assert monte.details["method"] == "monte_carlo"
        assert monte.p_value == pytest.approx(exact.p_value, abs=0.02)

    def test_monte_carlo_deterministic_via_seed(self):
        table = [[6, 2], [3, 7], [2, 6]]
        a = fisher_exact_rxc(table, max_exact_tables=1, seed=42)
        b = fisher_exact_rxc(table, max_exact_tables=1, seed=42)
        assert a.p_value == b.p_value

    def test_taxon_sized_table_uses_monte_carlo(self):
        # the study's 6x2 tables (195 projects) have ~12.6M candidate
        # tables, so the Monte Carlo path handles them — quickly and
        # deterministically
        table = [[24, 9], [30, 32], [16, 9], [11, 24], [7, 11], [2, 20]]
        result = fisher_exact_rxc(table)
        assert result.details["method"] == "monte_carlo"
        assert result.p_value < 0.05  # clearly taxon-dependent pattern


class TestCanonicalLagTables:
    """The canonical report's three Fisher p-values (200k seeded draws
    each): a change to the draws or to how a drawn table's probability
    is compared with the observed one's moves a hit count."""

    @pytest.mark.parametrize(
        "table, p_value",
        [
            (
                [[18, 15], [26, 36], [17, 12], [22, 19], [7, 3], [3, 17]],
                0.013244933775331123,
            ),
            (
                [[18, 15], [15, 47], [18, 11], [14, 27], [4, 6], [2, 18]],
                0.00023999880000599998,
            ),
            (
                [[18, 15], [15, 47], [14, 15], [14, 27], [4, 6], [2, 18]],
                0.004114979425102874,
            ),
        ],
        ids=["time", "source", "both"],
    )
    def test_monte_carlo_p_value_is_pinned(self, table, p_value):
        result = fisher_exact_rxc(table)
        assert result.details["method"] == "monte_carlo"
        assert result.p_value == p_value
