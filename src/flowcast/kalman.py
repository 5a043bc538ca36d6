"""Scalar linear-Gaussian Kalman filter over a flow series.

State model:        x[t+1] = transition * x[t] + w,   w ~ N(0, process_var)
Measurement model:  z[t] = measurement_scale * x[t] + v,   v ~ N(0, measurement_var)

Each step blends the predicted state with the new measurement through the
gain k = p * s / (s^2 * p + r), so the posterior is
posterior = prior + k * (z - s * prior). Relatively large measurement
noise pushes the estimate toward the model; relatively small measurement
noise pushes it toward the data.

The filter is initialized from the first observation: the estimate starts
at z[0] / measurement_scale under a diffuse prior variance p0, and the
first observation is then absorbed as a measurement (zero innovation, so
only the variance is conditioned). This gives the first observation the
same weight as every later one; with transition = 1, process_var = 0 and
a diffuse p0 the posterior is exactly the running mean of the series.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import NamedTuple

from flowcast.errors import DegenerateGain, InvalidParams, NonFiniteInput, SeriesTooShort
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
    """Model constants: noise variances plus the two multipliers."""

    process_var: float
    measurement_var: float
    transition: float = 1.0
    measurement_scale: float = 1.0

    def __post_init__(self):
        for name in ("process_var", "measurement_var", "transition", "measurement_scale"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.process_var < 0 or self.measurement_var < 0:
            raise InvalidParams("noise variances must be >= 0")
        if self.process_var + self.measurement_var <= 0:
            raise InvalidParams("process_var + measurement_var must be > 0")
        if self.measurement_scale == 0:
            raise InvalidParams("measurement_scale must be nonzero")


@dataclass(frozen=True)
class FilterState:
    """Estimate and its variance, before or after an update."""

    estimate: float
    variance: float

    def __post_init__(self):
        object.__setattr__(self, "estimate", _require_finite("estimate", self.estimate))
        object.__setattr__(self, "variance", _require_finite("variance", self.variance))
        if self.variance < 0:
            raise InvalidParams(f"variance must be >= 0, got {self.variance}")


@dataclass(frozen=True)
class FilterStep:
    """Everything one predict/update cycle produced."""

    prior: FilterState
    gain: float
    innovation: float
    posterior: FilterState
    forecast: float  # measurement-space one-step-ahead prediction


@dataclass(frozen=True)
class FilterTrace:
    """Initial state plus one FilterStep per observation after the first."""

    initial_state: FilterState
    steps: tuple[FilterStep, ...]

    @property
    def forecasts(self) -> tuple[float, ...]:
        return tuple(s.forecast for s in self.steps)

    @property
    def posteriors(self) -> tuple[FilterState, ...]:
        return tuple(s.posterior for s in self.steps)

    @property
    def gains(self) -> tuple[float, ...]:
        return tuple(s.gain for s in self.steps)

    @property
    def innovations(self) -> tuple[float, ...]:
        return tuple(s.innovation for s in self.steps)


class NoiseEstimate(NamedTuple):
    process_var: float
    measurement_var: float
    transition: float


def init_state(first_observation: float, params: FilterParams, p0: float = DEFAULT_INIT_VAR) -> FilterState:
    """Initial state from the first observation under prior variance p0."""
    first_observation = _require_finite("first_observation", first_observation)
    p0 = _require_finite("p0", p0)
    if p0 < 0:
        raise InvalidParams(f"p0 must be >= 0, got {p0}")
    return FilterState(first_observation / params.measurement_scale, p0)


def predict(state: FilterState, params: FilterParams) -> FilterState:
    """Propagate the state one step through the transition model."""
    return FilterState(
        params.transition * state.estimate,
        params.transition * params.transition * state.variance + params.process_var,
    )


def gain(prior: FilterState, params: FilterParams) -> float:
    """Blend weight for the next measurement.

    k = p * s / (s^2 * p + r). Zero prior variance and zero measurement
    noise leave the denominator empty: DegenerateGain.
    """
    s = params.measurement_scale
    denominator = s * s * prior.variance + params.measurement_var
    if denominator == 0:
        raise DegenerateGain("prior variance and measurement noise are both zero")
    return prior.variance * s / denominator


def update(prior: FilterState, measurement: float, params: FilterParams) -> FilterStep:
    """Absorb one measurement into the prior."""
    measurement = _require_finite("measurement", measurement)
    s = params.measurement_scale
    k = gain(prior, params)
    forecast = s * prior.estimate
    innovation = measurement - forecast
    posterior_estimate = prior.estimate + k * innovation
    # Same quantity as (1 - k*s) * p, written without the cancellation that
    # form suffers under a diffuse prior. The min() keeps the contraction
    # invariant p_post <= p_prior safe from division rounding.
    posterior_variance = min(
        prior.variance * params.measurement_var / (s * s * prior.variance + params.measurement_var),
        prior.variance,
    )
    return FilterStep(
        prior=prior,
        gain=k,
        innovation=innovation,
        posterior=FilterState(posterior_estimate, posterior_variance),
        forecast=forecast,
    )


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

    state = init_state(values[0], params, p0)
    # Zero-innovation absorption of the seed observation: conditions the
    # variance as if z[0] were measured, without moving the estimate.
    state = update(state, values[0], params).posterior

    initial_state = state
    steps = []
    for z in values[1:]:
        prior = predict(state, params)
        step = update(prior, z, params)
        steps.append(step)
        state = step.posterior
    return FilterTrace(initial_state=initial_state, steps=tuple(steps))


def forecast_next(state: FilterState, params: FilterParams, horizon: int) -> list[float]:
    """Measurement-space point forecasts for the next `horizon` steps."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    out = []
    x = state.estimate
    for _ in range(horizon):
        x = params.transition * x
        out.append(params.measurement_scale * x)
    return out


def estimate_noise(series: FlowSeries) -> NoiseEstimate:
    """Method-of-moments defaults for an unparameterized series.

    Random-walk transition (1.0); measurement variance is half the sample
    variance of first differences. Process variance is always the floor,
    1e-6 times the value variance: it is not estimated from the data, so
    the filter stays close to a running mean. A constant series falls back
    to symmetric 1e-9 floors. Sample (n-1) variances throughout;
    deterministic given the series.
    """
    values = series.values
    if len(values) < 3:
        raise SeriesTooShort(f"need at least 3 observations, got {len(values)}")

    values_var = statistics.variance(values)
    if values_var == 0:
        return NoiseEstimate(CONSTANT_SERIES_FLOOR, CONSTANT_SERIES_FLOOR, 1.0)

    diffs = [b - a for a, b in zip(values, values[1:])]
    diff_var = statistics.variance(diffs)
    measurement_var = diff_var / 2.0
    process_var = PROCESS_VAR_FLOOR_RATIO * values_var
    return NoiseEstimate(process_var, measurement_var, 1.0)
