"""Unit tests for the calibration contract and the lag measure."""

import pytest

from repro.analysis import canonical_study
from repro.coevolution import LagProfile, cross_correlation, schema_leads
from repro.corpus import (
    CALIBRATION_TARGETS,
    CalibrationTarget,
    calibration_report,
)
from repro.heartbeat import Heartbeat, Month


@pytest.fixture(scope="module")
def study():
    return canonical_study()


class TestCalibration:
    def test_canonical_study_passes_all_targets(self, study):
        report = calibration_report(study)
        assert report.ok, report.render()

    def test_every_band_contains_its_paper_value_or_states_why(self):
        """Bands must cover the paper value (they are acceptance bands
        for reproducing the paper, not for the synthetic mean)."""
        for target in CALIBRATION_TARGETS:
            low, high = target.band
            assert low <= target.paper_value <= high, target.name

    def test_report_counts(self, study):
        report = calibration_report(study)
        assert report.total == len(CALIBRATION_TARGETS)
        assert report.passed + len(report.misses()) == report.total

    def test_custom_target_failure_detected(self, study):
        impossible = CalibrationTarget(
            name="impossible",
            paper_value=0.5,
            band=(0.49, 0.51),
            extract=lambda s: 99.0,
        )
        report = calibration_report(study, targets=(impossible,))
        assert not report.ok
        assert report.misses()[0].target.name == "impossible"

    def test_outcome_str(self, study):
        outcome = CALIBRATION_TARGETS[0].measure(study)
        assert "blanks" in str(outcome)
        assert "[ok]" in str(outcome) or "[MISS]" in str(outcome)


def hb(values, start=Month(2019, 1)):
    return Heartbeat(start, [float(v) for v in values])


class TestCrossCorrelation:
    def test_identical_series_peak_at_zero(self):
        a = hb([5, 0, 3, 0, 8, 1, 0, 4])
        profile = cross_correlation(a, a, max_lag=3)
        assert profile.best_lag == 0
        assert profile.best_correlation == pytest.approx(1.0)

    def test_shifted_series_detects_lead(self):
        # project echoes schema two months later
        schema = hb([9, 0, 0, 7, 0, 0, 5, 0, 0, 0])
        project = hb([0, 0, 9, 0, 0, 7, 0, 0, 5, 0])
        profile = cross_correlation(schema, project, max_lag=4)
        assert profile.best_lag == 2
        assert profile.best_correlation == pytest.approx(1.0)

    def test_lag_sign_convention(self):
        """Peak at lag k pairs project month m+k with schema month m,
        so a schema-first pair peaks at positive lag and the mirrored
        pair at the negated lag."""
        schema_first = cross_correlation(
            hb([9, 0, 0, 0]), hb([0, 0, 9, 0]), max_lag=3
        )
        project_first = cross_correlation(
            hb([0, 0, 9, 0]), hb([9, 0, 0, 0]), max_lag=3
        )
        assert schema_first.best_lag == 2
        assert schema_first.best_lag == -project_first.best_lag

    def test_misaligned_starts_handled(self):
        schema = hb([4, 0, 4], start=Month(2019, 1))
        project = hb([0, 4, 0, 4], start=Month(2019, 2))
        profile = cross_correlation(schema, project, max_lag=2)
        assert -2 <= profile.best_lag <= 2

    def test_constant_series_zero_correlation(self):
        profile = cross_correlation(hb([3, 3, 3]), hb([1, 5, 9]))
        assert profile.best_correlation == 0.0

    def test_tiny_variances_do_not_underflow(self):
        # var_x * var_y underflows to 0.0 here (Hypothesis found it in
        # the mirror-symmetry property); the correlation is still ~1
        series = [0.0, 0.0, 0.0, 2.4e-118]
        profile = cross_correlation(hb(series), hb(series), max_lag=3)
        assert profile.correlation_at(0) == pytest.approx(1.0)
        for lag in profile.lags:
            assert profile.correlation_at(lag) == pytest.approx(
                profile.correlation_at(-lag), abs=1e-9
            )

    def test_correlation_at_and_window(self):
        profile = cross_correlation(hb([1, 2, 3]), hb([1, 2, 3]), max_lag=1)
        assert profile.correlation_at(0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            profile.correlation_at(5)

    def test_negative_max_lag_rejected(self):
        with pytest.raises(ValueError):
            cross_correlation(hb([1]), hb([1]), max_lag=-1)

    def test_schema_leads_helper(self):
        schema = hb([9, 0, 0, 7, 0, 0, 5, 0, 0, 0])
        echo = hb([0, 0, 9, 0, 0, 7, 0, 0, 5, 0])
        # schema activity precedes its 2-month echo: schema leads
        assert schema_leads(schema, echo)
        # and the mirrored pair does not
        assert not schema_leads(echo, schema)
