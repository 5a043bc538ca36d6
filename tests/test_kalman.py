"""Filter recursion: worked examples, oracle equivalence, invariants."""

import contextlib
import math
import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from flowcast.errors import DataError, InvalidParams, NonFiniteInput, SeriesTooShort
from flowcast.kalman import DEFAULT_INIT_VAR, FilterParams, estimate_noise, filter_series, forecast_next
from flowcast.series import FlowSeries

from oracles import fused_filter, kalman_filter, noise_estimate, running_means, sample_variance


def params(q=0.0, r=1.0, m_t=1.0, p0=DEFAULT_INIT_VAR):
    return FilterParams(process_var=q, measurement_var=r, transition=m_t, init_var=p0)


def series(*values):
    return FlowSeries(0, 300, tuple(float(v) for v in values))


def columns(trace):
    trace_columns = (trace.forecasts, trace.estimates, trace.variances, trace.gains, trace.innovations)
    return tuple(tuple(column.tolist()) for column in trace_columns)


def steps(trace, p):
    """Per-step (prior estimate, prior variance, forecast, estimate, variance, gain, innovation).

    The prior is derived as the filter derives it: m_t times the previous
    estimate, and m_t^2 times the previous variance plus q.
    """
    previous = trace.initial_estimate, trace.initial_variance
    for forecast, estimate, variance, k, innovation in zip(*columns(trace)):
        prior = p.transition * previous[0], p.transition * p.transition * previous[1] + p.process_var
        yield (*prior, forecast, estimate, variance, k, innovation)
        previous = estimate, variance


class TestInitState:
    # The seeded state is what absorbing the first value leaves behind.
    def test_mean_flow_sample(self):
        trace = filter_series(series(488.33, 500), params(r=1.0, p0=1.0))
        assert (trace.initial_estimate, trace.initial_variance) == (488.33, 0.5)

    def test_zero(self):
        trace = filter_series(series(0, 0), params(r=1.0, p0=0.0))
        assert (trace.initial_estimate, trace.initial_variance) == (0.0, 0.0)

    def test_rejects_non_finite(self):
        for first in (float("nan"), float("inf")):
            with pytest.raises(NonFiniteInput):
                filter_series(series(first, 1), params(p0=1.0))

    @pytest.mark.parametrize("p0", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_p0(self, p0):
        with pytest.raises(NonFiniteInput):
            params(p0=p0)

    def test_rejects_negative_p0(self):
        with pytest.raises(InvalidParams):
            params(p0=-1.0)


class TestPredict:
    def test_identity_transition_adds_process_noise(self):
        # Seed p = 1/2; prior p = 1/2 + q = 3 shows in the gain 3 / (3 + r).
        trace = filter_series(series(100, 110), params(q=2.5, r=1.0, p0=1.0))
        assert trace.forecasts.tolist() == [100.0]
        assert trace.gains.tolist() == [0.75]

    def test_growth_transition(self):
        # Seed p = 1/2; prior x = 2 * 100, p = 2^2 * 1/2 + 1 = 3, so k = 3/4.
        trace = filter_series(series(100, 240), params(q=1.0, r=1.0, m_t=2.0, p0=1.0))
        assert columns(trace) == ((200.0,), (230.0,), (0.75,), (0.75,), (40.0,))

    def test_zero_fixed_point(self):
        trace = filter_series(series(0, 0, 0), params(q=0.0, m_t=7.0, p0=0.0))
        assert columns(trace) == ((0.0, 0.0),) * 5

    def test_variance_overflow(self):
        with pytest.raises(NonFiniteInput):
            filter_series(series(100, 110, 120), params(q=1.0, r=1.0, m_t=1e200))


class TestGain:
    def test_equal_variances_split_evenly(self):
        # Seed k = 3/4 leaves p = 3/4; prior p = 3/4 + 1/4 equals r.
        trace = filter_series(series(100, 110), params(q=0.25, r=1.0, p0=3.0))
        assert trace.gains.tolist() == [0.5]

    def test_exact_measurement_dominates(self):
        trace = filter_series(series(100, 110), params(q=1.0, r=0.0, p0=1.0))
        assert trace.gains.tolist() == [1.0]
        assert trace.estimates.tolist() == [110.0]
        assert trace.variances.tolist() == [0.0]

    def test_exact_prior_dominates(self):
        trace = filter_series(series(100, 110), params(q=0.0, r=1.0, p0=0.0))
        assert trace.gains.tolist() == [0.0]

    def test_degenerate_denominator(self):
        with pytest.raises(InvalidParams):
            params(q=1.0, r=0.0, p0=0.0)


class TestUpdate:
    def test_even_blend(self):
        trace = filter_series(series(100, 110), params(q=0.5, r=1.0, p0=1.0))
        assert columns(trace) == ((100.0,), (105.0,), (0.5,), (0.5,), (10.0,))

    def test_certain_prior_ignores_measurement(self):
        trace = filter_series(series(100, 110), params(q=0.0, r=1.0, p0=0.0))
        assert trace.estimates.tolist() == [100.0]
        assert trace.innovations.tolist() == [10.0]

    def test_rounding_never_raises_the_variance(self):
        # p * r / (p + r) rounds above p for this p0; the update keeps p.
        p0 = 1.9081128851953353e-20
        trace = filter_series(series(0, 0), params(q=0.0, r=3.0, p0=p0))
        assert trace.initial_variance == p0
        assert trace.variances.tolist() == [p0]

    def test_zero_innovation_keeps_estimate(self):
        trace = filter_series(series(100, 100), params(r=3.7))
        assert trace.innovations.tolist() == [0.0]
        assert trace.estimates.tolist() == [100.0]

    def test_rejects_non_finite_measurement(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(NonFiniteInput):
                filter_series(series(0, bad), params(p0=1.0))
            with pytest.raises(NonFiniteInput):
                filter_series(series(0, bad, 1, 2), params(p0=1.0))


class TestFilterSeries:
    def test_constant_series_is_fixed_point(self):
        trace = filter_series(series(100, 100, 100, 100), params(q=0.0, r=1.0, p0=1e6))
        for estimate in trace.estimates:
            assert estimate == pytest.approx(100.0, rel=1e-12)

    def test_tiny_measurement_noise_averages_seed_and_next(self):
        # The seed observation is absorbed with full measurement weight, so
        # with r -> 0 both observations are treated as near-exact and the
        # posterior lands on their average rather than the newer one.
        trace = filter_series(series(100, 110), params(q=0.0, r=1e-9, p0=1e6))
        assert trace.estimates[-1] == pytest.approx(105.0, rel=1e-9)

    def test_diffuse_prior_recovers_running_means(self):
        trace = filter_series(series(100, 110, 120), params(q=0.0, r=1.0, p0=1e12))
        expected = running_means([100.0, 110.0, 120.0])
        assert list(trace.estimates) == pytest.approx(expected, rel=1e-9)

    def test_running_mean_equivalence_randomized(self):
        rng = random.Random(2024)
        for _ in range(50):
            n = rng.randint(2, 32)
            values = [rng.uniform(1.0, 1000.0) for _ in range(n)]
            trace = filter_series(series(*values), params(q=0.0, r=rng.uniform(0.1, 50.0), p0=1e12))
            expected = running_means(values)
            for got, want in zip(trace.estimates, expected):
                assert got == pytest.approx(want, rel=1e-6)

    def test_matches_textbook_oracle_randomized(self):
        # The oracle's (1 - k) * p variance loses up to about
        # eps * p0 / r relative to the filter's form, under 1e-10 with
        # these ranges; innovations can cancel, so they are held to the
        # forecast's scale instead.
        rng = random.Random(2025)
        for _ in range(200):
            n = rng.randint(2, 48)
            values = [rng.uniform(0.0, 1000.0) for _ in range(n)]
            q, r = rng.uniform(0.0, 100.0), rng.uniform(1.0, 100.0)
            m_t, p0 = rng.uniform(0.9, 1.1), rng.uniform(0.0, 1e5)
            trace = filter_series(series(*values), params(q=q, r=r, m_t=m_t, p0=p0))
            seed, want = kalman_filter(values, p0, q, r, m_t, 1.0)
            got = [(trace.initial_estimate, trace.initial_variance), *zip(*columns(trace))]
            assert len(got) == len(want) + 1
            for got_row, want_row in zip(got, [seed, *want]):
                assert got_row[:4] == pytest.approx(want_row[:4], rel=1e-9)
                assert got_row[4:] == pytest.approx(want_row[4:], rel=1e-9, abs=1e-9 * abs(want_row[0]))

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            filter_series(series(100), params())

    @pytest.mark.parametrize("q", [1e-3, 1e-300])  # the gain loop stops early, or runs every bin
    def test_memory_peak_is_close_to_the_trace(self, q):
        # The columns are built from the second bin on, with no slice
        # copies, and each list is emptied once its tuple exists.
        rng = random.Random(5)
        observed = series(*(rng.uniform(0.0, 500.0) for _ in range(100_000)))
        tracemalloc.start()
        try:
            trace = filter_series(observed, params(q=q, r=100.0))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.gains) == 99_999
        assert peak - retained <= 20 * 100_000

    def test_columns_are_read_only_float64_arrays(self):
        trace = filter_series(series(100, 110, 90, 130), params(q=1.0, r=4.0))
        for column in (trace.forecasts, trace.estimates, trace.variances, trace.gains, trace.innovations):
            assert (type(column), column.dtype, column.shape) == (np.ndarray, np.float64, (3,))
            with pytest.raises(ValueError):
                column[0] = 1.0
        assert type(trace.initial_estimate) is float and type(trace.initial_variance) is float

    def test_equality_compares_columns(self):
        trace = filter_series(series(100, 110, 90), params(q=1.0, r=4.0))
        assert trace == filter_series(series(100, 110, 90), params(q=1.0, r=4.0))
        assert trace != filter_series(series(100, 110, 91), params(q=1.0, r=4.0))
        with pytest.raises(TypeError):
            hash(trace)

    def test_trace_length_is_series_length_minus_one(self):
        trace = filter_series(series(1, 2, 3, 4, 5), params())
        assert [len(column) for column in columns(trace)] == [4] * 5

    def test_forecasts_are_causal(self):
        base = [100.0, 120.0, 90.0, 130.0, 105.0, 95.0]
        changed = base[:4] + [500.0, 700.0]
        p = params(q=2.0, r=5.0)
        trace_a = filter_series(series(*base), p)
        trace_b = filter_series(series(*changed), p)
        # Forecast at step i only uses observations before i.
        assert trace_a.forecasts[:4].tolist() == trace_b.forecasts[:4].tolist()


class TestForecastNext:
    def test_identity_transition(self):
        assert forecast_next(100.0, params(), 3) == [100.0, 100.0, 100.0]

    def test_growth_transition(self):
        got = forecast_next(100.0, params(m_t=1.1), 2)
        assert got == pytest.approx([110.0, 121.0], rel=1e-12)

    def test_zero_state(self):
        assert forecast_next(0.0, params(m_t=3.0, q=1.0), 1) == [0.0]

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            forecast_next(0.0, params(), 0)

    def test_numpy_estimate_gives_plain_floats(self):
        # The CLI writes each forecast by repr, and numpy 2 writes an
        # np.float64 as "np.float64(...)".
        got = forecast_next(np.float64(2.5), params(m_t=2.0), 2)
        assert got == [5.0, 10.0]
        assert [type(value) for value in got] == [float, float]


class TestEstimateNoise:
    def test_constant_series_falls_back_to_floors(self):
        assert estimate_noise(series(100, 100, 100, 100)) == (1e-9, 1e-9)

    def test_alternating_series_hand_value(self):
        values = [0.0, 2.0, 0.0, 2.0, 0.0, 2.0]
        q, r = estimate_noise(series(*values))
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert r == pytest.approx(sample_variance(diffs) / 2.0, rel=1e-12)
        assert q == pytest.approx(1e-6 * sample_variance(values), rel=1e-12)

    def test_scaling_law(self):
        values = [5.0, 9.0, 4.0, 8.0, 11.0, 3.0]
        q1, r1 = estimate_noise(series(*values))
        q2, r2 = estimate_noise(series(*(100.0 * v for v in values)))
        assert q2 == pytest.approx(q1 * 100.0**2, rel=1e-9)
        assert r2 == pytest.approx(r1 * 100.0**2, rel=1e-9)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            estimate_noise(series(1, 2))

    def test_overflow_is_data_error(self):
        # The exact sample variance of these values is finite but above the
        # float maximum.
        with pytest.raises(DataError, match="overflow"):
            estimate_noise(series(1e200, -1e200, 1e200, 5))


class TestParamsValidation:
    def test_both_noises_zero_rejected(self):
        with pytest.raises(InvalidParams):
            FilterParams(process_var=0.0, measurement_var=0.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(InvalidParams):
            FilterParams(process_var=-1.0, measurement_var=1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            FilterParams(process_var=float("nan"), measurement_var=1.0)


positive_floats = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
flow_values = st.lists(
    st.floats(min_value=0.0, max_value=5000.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=64,
)


@settings(max_examples=200, deadline=None)
@given(flow_values, positive_floats, positive_floats, positive_floats)
def test_step_invariants(values, q, r, p0):
    p = params(q=q, r=r, p0=p0)
    trace = filter_series(series(*values), p)
    for prior_estimate, prior_variance, forecast, estimate, variance, k, innovation in steps(trace, p):
        scale = max(1.0, abs(prior_estimate), abs(estimate))
        # Update identity, gain bounds, variance behavior.
        assert abs((estimate - prior_estimate) - k * innovation) <= 1e-12 * scale
        assert 0.0 <= k <= 1.0
        assert 0.0 <= variance <= prior_variance
        # Convexity: the posterior sits between prior and measurement.
        measurement = forecast + innovation
        lo = min(prior_estimate, measurement) - 1e-12 * scale
        hi = max(prior_estimate, measurement) + 1e-12 * scale
        assert lo <= estimate <= hi


@settings(max_examples=100, deadline=None)
@given(flow_values, positive_floats, positive_floats)
def test_more_measurement_noise_lowers_every_gain(values, q, r):
    low_noise = filter_series(series(*values), params(q=q, r=r, p0=1e6))
    high_noise = filter_series(series(*values), params(q=q, r=r * 10.0, p0=1e6))
    for lo_gain, hi_gain in zip(low_noise.gains, high_noise.gains):
        assert hi_gain < lo_gain


edge_floats = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.0, 1e308])
non_negative = st.floats(min_value=0.0, max_value=1e308) | edge_floats


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats() | edge_floats, min_size=2, max_size=16),
    non_negative,
    non_negative,
    non_negative,
    st.floats(allow_nan=False, allow_infinity=False),
)
def test_only_zero_p0_and_r_leave_no_gain(values, q, r, p0, m_t):
    # Every prior variance after the seed step is at least q, and q + r > 0,
    # so the seed step is the only one that can have a zero denominator.
    assume(q + r > 0 and (p0 > 0 or r > 0))
    with contextlib.suppress(NonFiniteInput):
        filter_series(series(*values), params(q=q, r=r, m_t=m_t, p0=p0))


def test_vanishing_measurement_noise_drives_gain_to_one():
    values = [100.0, 140.0, 90.0, 130.0]
    for r in (1.0, 1e-3, 1e-6, 1e-9):
        trace = filter_series(series(*values), params(q=1.0, r=r, p0=1e6))
        if r <= 1e-9:
            for k in trace.gains:
                assert k == pytest.approx(1.0, abs=1e-6)


def bits(column):
    """The IEEE bytes of a float column: equal only when every value is,
    signed zeros and NaNs included."""
    return struct.pack(f"<{len(column)}d", *column)


def assert_matches_fused_loop(values, p0, q, r, m_t):
    """filter_series against the fused loop it replaces, bit for bit; where
    the loop ends on a non-finite state, filter_series must reject it."""
    want = fused_filter(values, p0, q, r, m_t)
    if not (math.isfinite(want[3][-1]) and math.isfinite(want[4][-1])):
        with pytest.raises(NonFiniteInput):
            filter_series(series(*values), params(q=q, r=r, m_t=m_t, p0=p0))
        return None
    trace = filter_series(series(*values), params(q=q, r=r, m_t=m_t, p0=p0))
    got = (trace.initial_estimate, trace.initial_variance, *columns(trace))
    assert bits(got[:2]) == bits(want[:2])
    for got_column, want_column in zip(got[2:], want[2:]):
        assert type(got_column) is tuple
        assert bits(got_column) == bits(want_column)
    return trace


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False) | edge_floats, min_size=2, max_size=40),
    non_negative,
    non_negative,
    non_negative,
    st.sampled_from([1.0, 0.99, -1.0, 1.5, 0.0, 1e10]),
)
def test_matches_fused_loop_bit_for_bit(values, p0, q, r, m_t):
    assume(q + r > 0 and (p0 > 0 or r > 0))
    assert_matches_fused_loop(values, p0, q, r, m_t)


class TestGainRecursion:
    """The gain and variance columns never read the data, so they can stop
    being computed once the prior variance repeats; these cases pin where
    that happens against the fused loop."""

    def test_settles_at_the_first_step(self):
        trace = assert_matches_fused_loop([3.0, 5.0, 4.0, 7.0], 0.0, 0.0, 1.0, 1.0)
        assert bits(trace.gains) == bits([0.0] * 3)

    def test_never_settles_when_the_prior_overflows(self):
        # The prior reaches inf, then nan, which equals no earlier prior.
        assert_matches_fused_loop([1.0, 2.0, 3.0, 4.0], 1.0, 1.0, 1.0, 1e200)

    def test_never_settles_while_the_prior_grows(self):
        values = [100.0 + (-1.0) ** i * i for i in range(36)]
        trace = assert_matches_fused_loop(values, 1e6, 1e-6, 25.0, 1.5)
        assert len(set(trace.variances)) > 30

    def test_signed_zero_prior_is_not_a_repeat(self):
        # p0 = -0.0 gives the seed a -0.0 gain and the next step a +0.0
        # prior, which == calls equal to -0.0 but is not the same float.
        trace = assert_matches_fused_loop([3.0, 5.0, 4.0, 7.0], -0.0, 0.0, 1.0, 1.0)
        assert bits(trace.gains) == bits([0.0] * 3)

    def test_settles_on_a_year(self):
        rng = random.Random(13)
        values = [max(0.0, 120.0 + 40.0 * math.sin(i / 45.8) + rng.gauss(0.0, 15.0)) for i in range(105_120)]
        q, r = estimate_noise(series(*values))
        trace = assert_matches_fused_loop(values, 1e6, q, r, 1.0)
        assert len(set(trace.gains[10_000:])) == 1


finite_bits = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", b.to_bytes(8, "little"))[0]).filter(math.isfinite)
noise_series = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=30),
    st.lists(finite_bits, min_size=3, max_size=30),
    st.lists(st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 300)), min_size=3, max_size=30),
    st.lists(st.integers(-4000, 4000).map(lambda i: i / 4), min_size=3, max_size=300),
    st.lists(st.builds(math.ldexp, st.integers(-2**40, 2**40), st.sampled_from([-60, 0, 60])), min_size=3, max_size=30),
    st.builds(lambda v, n: [v] * n, st.floats(allow_nan=False, allow_infinity=False) | edge_floats, st.integers(3, 10)),
    st.lists(edge_floats, min_size=3, max_size=10),
)


@settings(max_examples=600, deadline=None)
@given(noise_series)
def test_estimate_noise_matches_statistics_variance_bit_for_bit(values):
    try:
        want = noise_estimate(values)
    except OverflowError:
        with pytest.raises(DataError, match="overflow"):
            estimate_noise(series(*values))
        return
    assert bits(estimate_noise(series(*values))) == bits(want)


@pytest.mark.parametrize(
    "values, want",
    [
        ([math.inf, 1.0, 2.0], (math.inf, -math.inf)),
        ([math.nan, 1.0, 2.0], (math.nan, math.nan)),
        ([math.inf, -math.inf, 1.0], (math.nan, math.nan)),
        ([-math.inf, 1.0, 2.0], (-math.inf, math.inf)),
        ([1.0, 2.0, math.inf], (math.inf, math.inf)),
    ],
)
def test_non_finite_series_keep_their_results(values, want):
    # The readers reject these values, but a FlowSeries built directly may
    # hold them: estimate_noise gives what statistics.variance gives (the
    # sum of the non-finite values, never a finite number) and the filter
    # rejects the series.
    got = [repr(v) for v in estimate_noise(series(*values))]
    assert got == [repr(v) for v in want] == [repr(v) for v in noise_estimate(values)]
    with pytest.raises(NonFiniteInput):
        filter_series(series(*values), params(q=1.0, r=1.0))
