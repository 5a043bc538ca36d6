"""Accuracy metrics, descriptive statistics, bands, trend and histogram."""

import math

import pytest
from hypothesis import example, given, strategies as st

from flowcast.errors import (
    EmptyInput,
    LengthMismatch,
    NegativeMetric,
    SeriesTooShort,
    ZeroDenominator,
    ZeroVariance,
)
from flowcast.metrics import (
    MapeBand,
    RmspeBand,
    build_report,
    descriptive,
    histogram,
    mape,
    mape_band,
    pearson,
    rmspe,
    rmspe_band,
    trend_slope,
)
from flowcast.series import FlowSeries

import oracles


class TestMape:
    def test_perfect_forecast(self):
        assert mape([100.0, 200.0], [100.0, 200.0]) == 0.0

    def test_single_pair_hand_value(self):
        assert mape([100.0], [90.0]) == pytest.approx(10.0, rel=1e-12)

    def test_two_pair_hand_value(self):
        assert mape([100.0, 100.0], [90.0, 120.0]) == pytest.approx(15.0, rel=1e-12)

    def test_observed_denominator_switch(self):
        assert mape([100.0], [90.0], denominator="observed") == pytest.approx(100.0 * 10.0 / 90.0, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mape([1.0], [1.0, 2.0])
        with pytest.raises(LengthMismatch):
            mape([], [])

    def test_zero_denominator_reports_index(self):
        with pytest.raises(ZeroDenominator) as excinfo:
            mape([1.0, 0.0], [1.0, 1.0])
        assert excinfo.value.index == 1


class TestRmspe:
    def test_perfect_forecast(self):
        assert rmspe([50.0, 60.0], [50.0, 60.0]) == 0.0

    def test_single_pair_equals_percent_error(self):
        assert rmspe([100.0], [90.0]) == pytest.approx(10.0, rel=1e-12)

    def test_two_pair_hand_value(self):
        assert rmspe([100.0, 100.0], [90.0, 120.0]) == pytest.approx(100.0 * math.sqrt(0.025), rel=1e-12)


class TestPearson:
    def test_identical_series(self):
        assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_exact_reversal(self):
        assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_against_direct_formula(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [2.0, 4.0, 5.0, 9.0]
        assert pearson(a, b) == pytest.approx(oracles.pearson(a, b), rel=1e-12)

    def test_constant_series_rejected(self):
        with pytest.raises(ZeroVariance):
            pearson([1.0, 1.0], [1.0, 2.0])

    @pytest.mark.parametrize("value", [1.9, 21.39374244084221])
    def test_constant_series_with_inexact_mean_rejected(self, value):
        # The float mean of these constant series is not the value itself.
        with pytest.raises(ZeroVariance):
            pearson([value] * 3, [1.0, 2.0, 3.0])
        with pytest.raises(ZeroVariance):
            pearson([1.0, 2.0, 3.0], [value] * 3)

    def test_single_pair_rejected(self):
        with pytest.raises(LengthMismatch):
            pearson([1.0], [2.0])

    @given(st.integers(2, 80).flatmap(lambda n: st.tuples(
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
    )))
    def test_equals_fsum_oracle_exactly(self, pair):
        # Every sum is an fsum, so the result is the same bits whatever
        # order a library would add in, and equal to the plain-loop oracle.
        a, b = pair
        try:
            expected = oracles.pearson_centred_twice(a, b)
        except ZeroDivisionError:
            with pytest.raises(ZeroVariance):
                pearson(a, b)
        else:
            assert pearson(a, b) == expected


def report_r_squared(predictions, observed):
    """The report's r_squared over these pairs (the first bin gets no forecast)."""
    return build_report(FlowSeries(0, 300, (0.0, *observed)), predictions).r_squared


class TestRSquared:
    def test_identical_series(self):
        assert report_r_squared([1.0, 5.0, 9.0], [1.0, 5.0, 9.0]) == 1.0

    def test_reversal_squares_away_the_sign(self):
        assert report_r_squared([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == 1.0

    def test_squares_the_correlation(self):
        a, b = oracles.correlated_pair(0.937)
        assert pearson(a, b) == pytest.approx(0.937, abs=1e-9)
        assert report_r_squared(b, a) == pytest.approx(0.937**2, abs=1e-9)


class TestDescriptive:
    def test_single_value(self):
        stats = descriptive([5.0])
        assert stats.count == 1
        assert stats.mean == 5.0
        assert stats.std_dev == 0.0
        assert stats.median == 5.0
        assert stats.min == 5.0 == stats.max

    def test_four_values_hand_stats(self):
        stats = descriptive([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == 2.5
        assert stats.median == 2.5
        assert stats.variance == pytest.approx(5.0 / 3.0, rel=1e-12)
        assert stats.std_dev == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-12)
        # Linear interpolation between closest ranks.
        assert stats.q1 == pytest.approx(1.75, rel=1e-12)
        assert stats.q3 == pytest.approx(3.25, rel=1e-12)

    def test_range_endpoints(self):
        stats = descriptive([225.0, 927.0])
        assert stats.min == 225.0
        assert stats.max == 927.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            descriptive([])

    def test_quartile_ordering(self):
        stats = descriptive([9.0, 1.0, 5.0, 3.0, 7.0, 2.0])
        assert stats.min <= stats.q1 <= stats.median <= stats.q3 <= stats.max


class TestBands:
    def test_reported_mape_is_good(self):
        assert mape_band(14.62) is MapeBand.GOOD

    def test_zero_is_high_accuracy(self):
        assert mape_band(0.0) is MapeBand.HIGH_ACCURACY

    @pytest.mark.parametrize(
        "value,band",
        [
            (9.999, MapeBand.HIGH_ACCURACY),
            (10.0, MapeBand.GOOD),
            (20.0, MapeBand.DECENT),
            (49.999, MapeBand.DECENT),
            (50.0, MapeBand.BAD),
            (1000.0, MapeBand.BAD),
        ],
        ids=str,
    )
    def test_mape_boundaries_tie_upward(self, value, band):
        assert mape_band(value) is band

    def test_reported_rmspe_is_acceptable(self):
        assert rmspe_band(18.73) is RmspeBand.ACCEPTABLE

    def test_rmspe_boundary(self):
        assert rmspe_band(0.0) is RmspeBand.ACCEPTABLE
        assert rmspe_band(25.0) is RmspeBand.ACCEPTABLE
        assert rmspe_band(25.0001) is RmspeBand.RECALIBRATION_REQUIRED

    def test_negative_metric_rejected(self):
        with pytest.raises(NegativeMetric):
            mape_band(-0.1)
        with pytest.raises(NegativeMetric):
            rmspe_band(-5.0)

    def test_bands_are_monotone(self):
        order = [MapeBand.HIGH_ACCURACY, MapeBand.GOOD, MapeBand.DECENT, MapeBand.BAD]
        samples = [0.0, 5.0, 9.99, 10.0, 15.0, 19.99, 20.0, 35.0, 50.0, 80.0, 500.0]
        ranks = [order.index(mape_band(v)) for v in samples]
        assert ranks == sorted(ranks)


class TestTrendSlope:
    def test_constant_series(self):
        assert trend_slope([100.0, 100.0, 100.0]) == 0.0

    def test_exact_line(self):
        assert trend_slope([0.0, 1.0, 2.0, 3.0]) == pytest.approx(1.0, rel=1e-12)

    def test_against_normal_equations(self):
        values = [1.0, 3.0, 2.0, 4.0]
        got = trend_slope(values)
        assert got == pytest.approx(oracles.ols_slope(values), rel=1e-12)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
    def test_equals_fsum_oracle_exactly(self, values):
        assert trend_slope(values) == oracles.ols_slope(values)

    def test_reversal_negates_slope(self):
        values = (4.0, 9.0, 2.0, 7.0, 5.0)
        fwd = trend_slope(values)
        rev = trend_slope(values[::-1])
        assert fwd == pytest.approx(-rev, rel=1e-12)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            trend_slope([1.0])


class TestHistogram:
    def test_single_bin(self):
        assert histogram([1.0, 1.0, 1.0], 1) == [(1.0, 3)]

    def test_two_bins_hand_value(self):
        assert histogram([0.0, 1.0, 2.0, 3.0], 2) == [(0.0, 2), (1.5, 2)]

    def test_degenerate_range_collapses_to_one_bin(self):
        assert histogram([5.0], 3) == [(5.0, 1)]

    def test_max_lands_in_last_bin_and_counts_sum(self):
        values = [0.0, 2.5, 5.0, 7.5, 10.0]
        bins = histogram(values, 4)
        assert sum(c for _, c in bins) == len(values)
        assert bins[-1][1] >= 1

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            histogram([], 4)

    @given(
        st.lists(
            st.one_of(
                st.floats(-1e300, 1e300),
                st.integers(-8, 8).map(float),  # values on bin edges, and ties
                # Multiples of inexact decimals, whose bin index depends on
                # the order of the divide and the multiply.
                st.builds(lambda k, step: k * step, st.integers(0, 10), st.sampled_from([0.1, 0.3, 0.7, 1.1])),
                st.sampled_from([0.0, -0.0, 1.0, 1.0000000000000002, 5e-324, -5e-324]),
            ),
            min_size=1,
            max_size=300,
        ),
        st.integers(1, 40),
    )
    @example([3.0, 1.2, 0.0], 20)
    @example([0.0, 2.8, 5.6], 12)
    def test_matches_per_value_loop(self, values, bin_count):
        assert histogram(values, bin_count) == oracles.histogram(values, bin_count)


nonzero_values = st.lists(
    st.floats(min_value=0.5, max_value=1000.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=50,
)


@given(nonzero_values, nonzero_values)
def test_rmspe_dominates_mape(forecast, observed):
    n = min(len(forecast), len(observed))
    f, o = forecast[:n], observed[:n]
    assert rmspe(f, o) >= mape(f, o) - 1e-9


@given(
    nonzero_values,
    nonzero_values,
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
)
def test_percent_errors_are_scale_invariant(forecast, observed, scale):
    n = min(len(forecast), len(observed))
    f, o = forecast[:n], observed[:n]
    scaled_mape = mape([scale * v for v in f], [scale * v for v in o])
    scaled_rmspe = rmspe([scale * v for v in f], [scale * v for v in o])
    assert scaled_mape == pytest.approx(mape(f, o), rel=1e-12, abs=1e-12)
    assert scaled_rmspe == pytest.approx(rmspe(f, o), rel=1e-12, abs=1e-12)


@given(
    st.lists(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=2, max_size=40),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)
def test_descriptive_shift_moves_location_not_spread(values, shift):
    base = descriptive(values)
    moved = descriptive([v + shift for v in values])
    assert moved.mean == pytest.approx(base.mean + shift, rel=1e-9, abs=1e-6)
    assert moved.median == pytest.approx(base.median + shift, rel=1e-9, abs=1e-6)
    assert moved.min == pytest.approx(base.min + shift, rel=1e-9, abs=1e-6)
    assert moved.max == pytest.approx(base.max + shift, rel=1e-9, abs=1e-6)
    assert moved.std_dev == pytest.approx(base.std_dev, rel=1e-6, abs=1e-6)


@given(st.permutations(list(range(12))))
def test_descriptive_is_order_independent(permuted):
    values = [float(3 * i + 1) for i in permuted]
    stats = descriptive(values)
    assert stats.mean == pytest.approx(descriptive(sorted(values)).mean, rel=1e-12)
    assert stats.median == descriptive(sorted(values)).median


@given(
    st.lists(st.floats(min_value=1.0, max_value=100.0, allow_nan=False), min_size=2, max_size=30),
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)
def test_r_squared_affine_invariance(base, alpha, beta):
    noisy = [v + ((-1) ** i) * (1.0 + i) for i, v in enumerate(base)]
    try:
        expected = pearson(base, noisy) ** 2
    except ZeroVariance:
        return
    mapped = [alpha * v + beta for v in base]
    try:
        actual = pearson(mapped, noisy) ** 2
    except ZeroVariance:
        # The float map can round distinct values to one: alpha=1, beta=1
        # maps [1.0, 1.0000000000000002] to [2.0, 2.0], which has no correlation.
        assert len(set(mapped)) == 1
        return
    assert actual == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_build_report_assembles_consistent_fields():
    observed = FlowSeries(0, 300, (100.0, 110.0, 125.0, 118.0, 140.0))
    predictions = (102.0, 111.0, 120.0, 126.0)
    report = build_report(observed, predictions)
    assert report.rmspe_percent >= report.mape_percent
    assert report.mape_band is mape_band(report.mape_percent)
    assert report.rmspe_band is rmspe_band(report.rmspe_percent)
    assert report.r_squared == pytest.approx(report.pearson_r**2, rel=1e-12)
    assert report.observed_stats.count == 4
    assert report.predicted_stats.count == 4
    assert report.trend_slope == pytest.approx(oracles.ols_slope([100.0, 110.0, 125.0, 118.0, 140.0]), rel=1e-12)


def test_build_report_length_check():
    observed = FlowSeries(0, 300, (1.0, 2.0, 3.0))
    with pytest.raises(LengthMismatch):
        build_report(observed, (1.0,))
