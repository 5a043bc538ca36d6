"""Forecast accuracy metrics, descriptive statistics and quality bands.

Percent errors (MAPE, RMSPE) divide by the forecast value by default; a
`denominator` switch selects the conventional observed-value denominator
instead. Band boundaries are fixed: MAPE ties at 10/20/50 go to the
lower-quality side, while an RMSPE of exactly 25 still counts as
acceptable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from flowcast.errors import (
    EmptyInput,
    LengthMismatch,
    NegativeMetric,
    SeriesTooShort,
    ZeroDenominator,
    ZeroVariance,
)
from flowcast.series import FlowSeries


class MapeBand(str, Enum):
    HIGH_ACCURACY = "high_accuracy"  # below 10 percent
    GOOD = "good"                    # 10 to 20
    DECENT = "decent"                # 20 to 50
    BAD = "bad"                      # 50 and above


class RmspeBand(str, Enum):
    ACCEPTABLE = "acceptable"                        # up to and including 25
    RECALIBRATION_REQUIRED = "recalibration_required"  # above 25


@dataclass(frozen=True)
class DescriptiveStats:
    """Sample statistics of one value series (n-1 standard deviation)."""

    count: int
    mean: float
    std_dev: float
    variance: float
    min: float
    max: float
    median: float
    q1: float
    q3: float


@dataclass(frozen=True)
class EvaluationReport:
    """Accuracy metrics plus the per-side statistics backing the plots."""

    mape_percent: float
    rmspe_percent: float
    pearson_r: float
    r_squared: float
    trend_slope: float
    mape_band: MapeBand
    rmspe_band: RmspeBand
    observed_stats: DescriptiveStats
    predicted_stats: DescriptiveStats


def _paired_arrays(forecast: Sequence[float], observed: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    f = np.asarray(forecast, dtype=float)
    o = np.asarray(observed, dtype=float)
    if f.size != o.size:
        raise LengthMismatch(f"forecast has {f.size} values, observed has {o.size}")
    if f.size == 0:
        raise LengthMismatch("need at least one forecast/observed pair")
    return f, o


def _percent_errors(forecast, observed, denominator: str) -> np.ndarray:
    f, o = _paired_arrays(forecast, observed)
    if denominator == "forecast":
        denom = f
    elif denominator == "observed":
        denom = o
    else:
        raise ValueError(f"denominator must be 'forecast' or 'observed', got {denominator!r}")
    zeros = np.nonzero(denom == 0.0)[0]
    if zeros.size:
        raise ZeroDenominator(int(zeros[0]))
    return (f - o) / denom


def mape(forecast: Sequence[float], observed: Sequence[float], denominator: str = "forecast") -> float:
    """Mean absolute percent error: (100/n) * sum(|f - o| / |denom|)."""
    errors = _percent_errors(forecast, observed, denominator)
    return float(100.0 * np.mean(np.abs(errors)))


def rmspe(forecast: Sequence[float], observed: Sequence[float], denominator: str = "forecast") -> float:
    """Root mean square percent error: 100 * sqrt(mean(((f - o) / denom)^2))."""
    errors = _percent_errors(forecast, observed, denominator)
    return float(100.0 * math.sqrt(float(np.mean(errors * errors))))


# The sums in pearson and trend_slope are fsums, correctly rounded, so the
# scores do not depend on the order a library adds in (np.dot's order
# changes with the BLAS thread count).
def fsum_mean(values: np.ndarray) -> float:
    """The mean, from a correctly rounded sum."""
    return math.fsum(values.tolist()) / values.size


def _centered(values: np.ndarray) -> np.ndarray:
    """Deviations from the mean, centred a second time.

    The mean carries a rounding error, so a constant series whose mean
    rounds off leaves equal non-zero deviations; the second pass removes
    them, and such a series then reads as constant.
    """
    deviations = values - fsum_mean(values)
    return deviations - fsum_mean(deviations)


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    """Sample Pearson correlation, clamped into [-1, 1]."""
    x, y = _paired_arrays(a, b)
    if x.size < 2:
        raise LengthMismatch("correlation needs at least 2 pairs")
    xc = _centered(x)
    yc = _centered(y)
    sxx = math.fsum((xc * xc).tolist())
    syy = math.fsum((yc * yc).tolist())
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVariance("correlation is undefined for a constant series")
    r = math.fsum((xc * yc).tolist()) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def descriptive(values: Sequence[float]) -> DescriptiveStats:
    """Sample statistics; quartiles by linear interpolation between closest ranks."""
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        raise EmptyInput("cannot describe an empty series")
    variance = float(np.var(a, ddof=1)) if a.size >= 2 else 0.0
    q1, median, q3 = (float(q) for q in np.percentile(a, [25.0, 50.0, 75.0]))
    return DescriptiveStats(
        count=int(a.size),
        mean=float(a.mean()),
        std_dev=math.sqrt(variance),
        variance=variance,
        min=float(a.min()),
        max=float(a.max()),
        median=median,
        q1=q1,
        q3=q3,
    )


def mape_band(mape_percent: float) -> MapeBand:
    """Classify a MAPE value; ties at 10/20/50 take the higher (worse) band."""
    if not mape_percent >= 0:
        raise NegativeMetric(f"MAPE must be >= 0, got {mape_percent}")
    if mape_percent < 10.0:
        return MapeBand.HIGH_ACCURACY
    if mape_percent < 20.0:
        return MapeBand.GOOD
    if mape_percent < 50.0:
        return MapeBand.DECENT
    return MapeBand.BAD


def rmspe_band(rmspe_percent: float) -> RmspeBand:
    """Classify an RMSPE value; exactly 25 still counts as acceptable."""
    if not rmspe_percent >= 0:
        raise NegativeMetric(f"RMSPE must be >= 0, got {rmspe_percent}")
    if rmspe_percent <= 25.0:
        return RmspeBand.ACCEPTABLE
    return RmspeBand.RECALIBRATION_REQUIRED


def trend_slope(values: Sequence[float]) -> float:
    """Ordinary least squares slope of value against bin index, in PCU per bin."""
    y = np.asarray(values, dtype=float)
    if y.size < 2:
        raise SeriesTooShort(f"trend needs at least 2 bins, got {y.size}")
    xc = np.arange(y.size) - (y.size - 1) / 2.0
    return math.fsum((xc * (y - fsum_mean(y))).tolist()) / math.fsum((xc * xc).tolist())


def histogram(values: Sequence[float], bin_count: int) -> list[tuple[float, int]]:
    """Equal-width bins over [min, max] as (lower_edge, count) pairs.

    The maximum lands in the last bin; a single-point range collapses to
    one bin holding everything.
    """
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        raise EmptyInput("cannot bin an empty series")
    if bin_count < 1:
        raise ValueError(f"bin_count must be >= 1, got {bin_count}")
    lo, hi = float(a.min()), float(a.max())
    if lo == hi:
        return [(lo, a.size)]
    span = hi - lo
    # Truncation as int() does it: every index is >= 0.
    index = ((a - lo) / span * bin_count).astype(np.int64)
    counts = np.bincount(np.minimum(index, bin_count - 1), minlength=bin_count).tolist()
    return [(lo + i * span / bin_count, counts[i]) for i in range(bin_count)]


def build_report(
    observed: FlowSeries,
    predictions: Sequence[float],
    denominator: str = "forecast",
) -> EvaluationReport:
    """Assemble the full report for a filtered series.

    predictions must hold one value per observed bin after the first (the
    bins that actually received a forecast); metrics and per-side stats
    are computed over those aligned pairs. The trend slope covers the full
    observed series.
    """
    if len(predictions) != len(observed.values) - 1:
        raise LengthMismatch(
            f"expected {len(observed.values) - 1} predictions for {len(observed.values)} bins, "
            f"got {len(predictions)}"
        )
    observed_tail = observed.values[1:]
    mape_percent = mape(predictions, observed_tail, denominator)
    rmspe_percent = rmspe(predictions, observed_tail, denominator)
    r = pearson(predictions, observed_tail)
    return EvaluationReport(
        mape_percent=mape_percent,
        rmspe_percent=rmspe_percent,
        pearson_r=r,
        r_squared=r * r,
        trend_slope=trend_slope(observed.values),
        mape_band=mape_band(mape_percent),
        rmspe_band=rmspe_band(rmspe_percent),
        observed_stats=descriptive(observed_tail),
        predicted_stats=descriptive(predictions),
    )
