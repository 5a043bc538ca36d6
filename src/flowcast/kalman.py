"""Scalar linear-Gaussian Kalman filter over a flow series: a local-level
model (Harvey 1989) with a transition multiplier.

State model:        x[t+1] = transition * x[t] + w,   w ~ N(0, process_var)
Measurement model:  z[t] = x[t] + v,   v ~ N(0, measurement_var)

Each step blends the predicted state with the new measurement through the
gain k = p / (p + r), so the posterior is prior + k * (z - prior).
Relatively large measurement noise pushes the estimate toward the model;
relatively small measurement noise pushes it toward the data.

The filter is initialized from the first observation: the estimate starts
at z[0] under a diffuse prior variance p0, and the first observation is
then absorbed as a measurement (zero innovation, so only the variance is
conditioned). This gives the first observation the same weight as every
later one; with transition = 1, process_var = 0 and a diffuse p0 the
posterior is exactly the running mean of the series.

filter_series runs the whole recursion in one plain-float loop and
returns a FilterTrace: the seed posterior (estimate and variance) plus
parallel columns (forecast, posterior estimate and variance, gain,
innovation) with one entry per observation after the first.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import NamedTuple

from flowcast.errors import DataError, DegenerateGain, InvalidParams, NonFiniteInput, SeriesTooShort
from flowcast.series import FlowSeries

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
    """Model constants: noise variances plus the transition multiplier."""

    process_var: float
    measurement_var: float
    transition: float = 1.0

    def __post_init__(self):
        for name in ("process_var", "measurement_var", "transition"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.process_var < 0 or self.measurement_var < 0:
            raise InvalidParams("noise variances must be >= 0")
        if self.process_var + self.measurement_var <= 0:
            raise InvalidParams("process_var + measurement_var must be > 0")


@dataclass(frozen=True)
class FilterTrace:
    """The seed posterior, then one column entry per observation after the first.

    initial_estimate and initial_variance are the state after absorbing
    the first observation. forecasts are the one-step-ahead predictions,
    each made before its observation was absorbed; estimates and variances
    are the posterior state; gains and innovations are each update's blend
    weight and measurement residual.
    """

    initial_estimate: float
    initial_variance: float
    forecasts: tuple[float, ...]
    estimates: tuple[float, ...]
    variances: tuple[float, ...]
    gains: tuple[float, ...]
    innovations: tuple[float, ...]


class NoiseEstimate(NamedTuple):
    process_var: float
    measurement_var: float


def filter_series(series: FlowSeries, params: FilterParams, p0: float = DEFAULT_INIT_VAR) -> FilterTrace:
    """Run the full recursion over an observed series.

    The first observation seeds the state (see module docstring); every
    later observation contributes one predict/update step. Forecasts are
    strictly causal: the forecast recorded at step i was computed before
    observation i was absorbed.
    """
    values = series.values
    if len(values) < 2:
        raise SeriesTooShort(f"need at least 2 observations, got {len(values)}")
    first = _require_finite("first_observation", values[0])
    p0 = _require_finite("p0", p0)
    if p0 < 0:
        raise InvalidParams(f"p0 must be >= 0, got {p0}")

    m_t, q, r = params.transition, params.process_var, params.measurement_var
    # Only the seed step can have no gain: every later prior variance is at
    # least q, and FilterParams makes q + r > 0.
    if p0 == 0 and r == 0:
        raise DegenerateGain("prior variance and measurement noise are both zero")
    forecasts, estimates, variances, gains, innovations = [], [], [], [], []
    # Prior of the seed bin: no prediction step precedes it, and absorbing
    # z[0] leaves a zero innovation, so only the variance is conditioned.
    x, p = first, p0
    for z in values:
        denominator = p + r
        k = p / denominator
        innovation = z - x
        forecasts.append(x)
        x = x + k * innovation
        # Same quantity as (1 - k) * p, written without the cancellation that
        # form suffers under a diffuse prior. The min() keeps the contraction
        # invariant p_post <= p_prior safe from division rounding.
        p = min(p * r / denominator, p)
        estimates.append(x)
        variances.append(p)
        gains.append(k)
        innovations.append(innovation)
        # Prior for the next bin.
        x, p = m_t * x, m_t * m_t * p + q

    # Arithmetic on inf or nan gives inf or nan, and a non-finite variance
    # makes the gain and so the estimate nan: once a measurement or an
    # overflow makes the state non-finite it stays so, and checking the
    # last posterior covers every bin.
    _require_finite("estimate", estimates[-1])
    _require_finite("variance", variances[-1])
    return FilterTrace(
        estimates[0],
        variances[0],
        *(tuple(column[1:]) for column in (forecasts, estimates, variances, gains, innovations)),
    )


def forecast_next(estimate: float, params: FilterParams, horizon: int) -> list[float]:
    """Point forecasts for the next `horizon` steps from the last posterior
    estimate."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    out = []
    x = estimate
    for _ in range(horizon):
        x = params.transition * x
        out.append(x)
    return out


def estimate_noise(series: FlowSeries) -> NoiseEstimate:
    """Method-of-moments defaults for an unparameterized series, under a
    random-walk transition.

    Measurement variance is half the sample variance of first differences.
    Process variance is always the floor, 1e-6 times the value variance: it
    is not estimated from the data, so the filter stays close to a running
    mean. A constant series falls back to symmetric 1e-9 floors. Sample
    (n-1) variances throughout; deterministic given the series. A variance
    beyond the float range raises DataError.
    """
    values = series.values
    if len(values) < 3:
        raise SeriesTooShort(f"need at least 3 observations, got {len(values)}")

    try:
        values_var = statistics.variance(values)
        if values_var == 0:
            return NoiseEstimate(CONSTANT_SERIES_FLOOR, CONSTANT_SERIES_FLOOR)
        diff_var = statistics.variance([b - a for a, b in zip(values, values[1:])])
    except OverflowError:
        raise DataError("the noise variances of this series overflow a float; set q and r (--q, --r)") from None
    return NoiseEstimate(PROCESS_VAR_FLOOR_RATIO * values_var, diff_var / 2.0)
