"""Scalar linear-Gaussian Kalman filter over a flow series: a local-level
model (Harvey 1989) with a transition multiplier.

State model:        x[t+1] = transition * x[t] + w,   w ~ N(0, process_var)
Measurement model:  z[t] = x[t] + v,   v ~ N(0, measurement_var)

Each step blends the predicted state with the new measurement through the
gain k = p / (p + r), so the posterior is prior + k * (z - prior).
Relatively large measurement noise pushes the estimate toward the model;
relatively small measurement noise pushes it toward the data.

The filter is initialized from the first observation: the estimate starts
at z[0] under a diffuse prior variance init_var (the p0 setting), and the
first observation is then absorbed as a measurement (zero innovation, so
only the variance is conditioned). This gives the first observation the
same weight as every later one; with transition = 1, process_var = 0 and a
diffuse init_var the posterior is exactly the running mean of the series.

filter_series runs the recursion as two plain-float loops. The variance
and gain recursion never reads the data and settles to a steady state
(Anderson & Moore 1979, Optimal Filtering, ch. 4), so the gain loop stops
once the prior variance repeats bit for bit: every later step would repeat
it, and the rest of the gain and variance columns repeats the last step.
A recursion that never settles, such as a short series or a prior that
overflows, runs the full length. The state loop then carries the estimate
through those gains. Each loop performs the float operations of one fused
predict/update step in the same order, so the columns are the floats that
fused loop gives. The result is a FilterTrace: the seed posterior
(estimate and variance) plus parallel columns (forecast, posterior
estimate and variance, gain, innovation) with one entry per observation
after the first, each a read-only 1-D float64 array.

Both loops work on plain floats, which they append to stdlib float
arrays (array("d"), 8 bytes a value); the estimate, variance and gain
columns are numpy views of those buffers, so no list of float objects is
built. The state loop carries only the estimate; the forecast and
innovation columns are then one numpy operation each, which rounds as
the loop would have.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from flowcast.errors import DataError, InvalidParams, NonFiniteInput, SeriesTooShort
from flowcast.series import FlowSeries, columns_equal, float_column

DEFAULT_INIT_VAR = 1e6

# Floors used by estimate_noise: process-variance fraction of the value
# variance, and the fallback for constant series.
PROCESS_VAR_FLOOR_RATIO = 1e-6
CONSTANT_SERIES_FLOOR = 1e-9


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NonFiniteInput(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class FilterParams:
    """The filter's settings: the noise variances, the transition multiplier
    and init_var, the prior variance of the seed step (the p0 setting)."""

    process_var: float
    measurement_var: float
    transition: float = 1.0
    init_var: float = DEFAULT_INIT_VAR

    def __post_init__(self):
        for name in ("process_var", "measurement_var", "transition", "init_var"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if min(self.process_var, self.measurement_var, self.init_var) < 0:
            raise InvalidParams("variances must be >= 0")
        # The seed step's prior variance is p0 and every later one is at
        # least q, so with r = 0 a zero in either leaves a gain of 0 / 0.
        if min(self.process_var, self.init_var) + self.measurement_var <= 0:
            raise InvalidParams("q and p0 must be > 0 when r is 0, or the filter's gain is 0 / 0")


@dataclass(frozen=True, eq=False)
class FilterTrace:
    """The seed posterior, then one column entry per observation after the first.

    initial_estimate and initial_variance are the state after absorbing
    the first observation. forecasts are the one-step-ahead predictions,
    each made before its observation was absorbed; estimates and variances
    are the posterior state; gains and innovations are each update's blend
    weight and measurement residual. Each column is a read-only 1-D float64
    array (see series.float_column). Traces are equal when every field is
    (np.array_equal); a trace is not hashable.
    """

    initial_estimate: float
    initial_variance: float
    forecasts: np.ndarray
    estimates: np.ndarray
    variances: np.ndarray
    gains: np.ndarray
    innovations: np.ndarray

    def __post_init__(self):
        for name in ("forecasts", "estimates", "variances", "gains", "innovations"):
            object.__setattr__(self, name, float_column(getattr(self, name)))

    __eq__ = columns_equal


class NoiseEstimate(NamedTuple):
    process_var: float
    measurement_var: float


def filter_series(series: FlowSeries, params: FilterParams) -> FilterTrace:
    """Run the full recursion over an observed series.

    The first observation seeds the state (see module docstring); every
    later observation contributes one predict/update step. Forecasts are
    strictly causal: the forecast recorded at step i was computed before
    observation i was absorbed. The gain loop runs until the prior variance
    repeats bit for bit (signed zeros told apart), the state loop over every
    bin.
    """
    values = series.values
    if len(values) < 2:
        raise SeriesTooShort(f"need at least 2 observations, got {len(values)}")
    first = _require_finite("first_observation", values[0])

    m_t, q, r = params.transition, params.process_var, params.measurement_var
    # Gain loop. The seed bin's prior is init_var: no prediction step precedes it.
    gains, variances, prior = array("d"), array("d"), params.init_var
    for _ in range(len(values)):
        denominator = prior + r
        k = prior / denominator
        # Same quantity as (1 - k) * prior, written without the cancellation that
        # form suffers under a diffuse prior. The min() keeps the contraction
        # invariant post <= prior safe from division rounding.
        post = min(prior * r / denominator, prior)
        gains.append(k)
        variances.append(post)
        # Prior for the next bin. Once it repeats bit for bit (== alone
        # would take -0.0 for 0.0), so does every later step.
        previous, prior = prior, m_t * m_t * post + q
        if prior == previous and math.copysign(1.0, prior) == math.copysign(1.0, previous):
            break
    # The settled tail repeats the last step, filled from it rather than looped.
    for column in (gains, variances):
        column.extend(column[-1:] * (len(values) - len(column)))
    seed_gain, initial_variance = gains[0], variances[0]

    # State loop. Absorbing z[0] leaves a zero innovation, so the seed step
    # conditions only the variance. Only the estimate carries from bin to bin.
    x = initial_estimate = first + seed_gain * (first - first)
    estimates = array("d")
    for z, k in zip(memoryview(values)[1:], memoryview(gains)[1:]):
        x = m_t * x
        x = x + k * (z - x)
        estimates.append(x)

    # Arithmetic on inf or nan gives inf or nan, and a non-finite variance
    # makes the gain and so the estimate nan: once a measurement or an
    # overflow makes the state non-finite it stays so, and checking the
    # last posterior covers every bin.
    _require_finite("estimate", estimates[-1])
    _require_finite("variance", variances[-1])
    # Each float array is viewed through a read-only memoryview: not copied, and not writable.
    estimates, variances, gains = (np.frombuffer(memoryview(c).toreadonly()) for c in (estimates, variances, gains))
    # A forecast is m_t times the estimate before it, and an innovation its
    # observation less its forecast: one float operation each, which numpy
    # rounds exactly as the loop did.
    forecasts = m_t * np.concatenate(([initial_estimate], estimates[:-1]))
    innovations = values[1:] - forecasts
    forecasts.flags.writeable = innovations.flags.writeable = False
    return FilterTrace(initial_estimate, initial_variance, forecasts, estimates, variances[1:], gains[1:], innovations)


def forecast_next(estimate: float, params: FilterParams, horizon: int) -> list[float]:
    """Point forecasts for the next `horizon` steps from the last posterior
    estimate."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    x, out = float(estimate), []  # plain floats, whatever the estimate's type
    for _ in range(horizon):
        x = params.transition * x
        out.append(x)
    return out


def _variance(values: np.ndarray) -> float:
    """The sample variance statistics.variance returns, from exact integer
    sums and one correctly rounded division; OverflowError beyond a float."""
    if not np.isfinite(values).all():  # as statistics.variance: the sum of the non-finite values
        return sum(values[~np.isfinite(values)].tolist())
    mantissas, exponents = np.frexp(values[values != 0])
    if not len(mantissas):
        return 0.0
    # Each value is odd * 2**power; scaled by the power all share, they are
    # integers below 2**(exponent - shared).
    ints = (mantissas * 2.0**53).astype(np.int64)
    zeros = np.frexp((ints & -ints).astype(float))[1] - 1
    powers = exponents - 53 + zeros
    shared = int(powers.min())
    ints, shifts, n = ints >> zeros, powers - shared, len(values)
    if 2 * (int(exponents.max()) - shared) + n.bit_length() > 63:
        ints = ints.astype(object)  # n * max(ints)**2 could overflow int64: use Python ints
    ints = ints << shifts
    sx, sxx = int(ints.sum()), int((ints * ints).sum())
    return ((n * sxx - sx * sx) << max(2 * shared, 0)) / (n * (n - 1) << max(-2 * shared, 0))


def estimate_noise(series: FlowSeries) -> NoiseEstimate:
    """Method-of-moments defaults for an unparameterized series, under a
    random-walk transition.

    Measurement variance is half the sample variance of first differences.
    Process variance is always the floor, 1e-6 times the value variance: it
    is not estimated from the data, so the filter stays close to a running
    mean. A constant series falls back to symmetric 1e-9 floors. Sample
    (n-1) variances throughout; deterministic given the series. A variance
    beyond the float range raises DataError.

    Each variance is exact: integer sums over the values' mantissas and one
    correctly rounded division give the float statistics.variance gives.
    A series holding inf or nan (the readers reject them, a FlowSeries built
    directly may not) gets the sum of those values: inf, -inf or nan.
    """
    if len(series) < 3:
        raise SeriesTooShort(f"need at least 3 observations, got {len(series)}")

    try:
        values_var = _variance(series.values)
        if values_var == 0:
            return NoiseEstimate(CONSTANT_SERIES_FLOOR, CONSTANT_SERIES_FLOOR)
        with np.errstate(invalid="ignore"):  # inf - inf is nan, as in float arithmetic
            diff_var = _variance(np.diff(series.values))
    except OverflowError:
        raise DataError("the noise variances of this series overflow a float; set q and r (--q, --r)") from None
    return NoiseEstimate(PROCESS_VAR_FLOOR_RATIO * values_var, diff_var / 2.0)
