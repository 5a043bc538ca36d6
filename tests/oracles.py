"""Independent brute-force oracles the tests check the library against.

Everything here is written from the defining formulas with plain loops
and math.fsum, on purpose sharing no code path with the package. The
exceptions are the plain versions of code the package has since made
faster (trace_csv_lines, fused_filter, noise_estimate, scatter_marks):
the fast code must give their output bit for bit.
"""

from __future__ import annotations

import math
import re
import statistics
from datetime import datetime, timedelta, timezone
from typing import Iterator, Mapping, Sequence

import numpy as np


def running_means(values: Sequence[float]) -> list[float]:
    """Arithmetic mean of each prefix of length >= 2."""
    return [math.fsum(values[:i]) / i for i in range(2, len(values) + 1)]


def mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def sample_variance(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    m = mean(values)
    return math.fsum((v - m) ** 2 for v in values) / (len(values) - 1)


def percentile_linear(values: Sequence[float], fraction: float) -> float:
    """Linear interpolation between closest ranks of the sorted array."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    below = math.floor(position)
    above = min(below + 1, len(ordered) - 1)
    weight = position - below
    return ordered[below] + weight * (ordered[above] - ordered[below])


def descriptive_stats(values: Sequence[float]) -> dict:
    return {
        "count": len(values),
        "mean": mean(values),
        "std_dev": math.sqrt(sample_variance(values)),
        "variance": sample_variance(values),
        "min": min(values),
        "max": max(values),
        "median": percentile_linear(values, 0.5),
        "q1": percentile_linear(values, 0.25),
        "q3": percentile_linear(values, 0.75),
    }


def mape(forecast: Sequence[float], observed: Sequence[float], denominator: str = "forecast") -> float:
    denom = forecast if denominator == "forecast" else observed
    terms = [abs(f - o) / abs(d) for f, o, d in zip(forecast, observed, denom)]
    return 100.0 * math.fsum(terms) / len(terms)


def rmspe(forecast: Sequence[float], observed: Sequence[float], denominator: str = "forecast") -> float:
    denom = forecast if denominator == "forecast" else observed
    terms = [((f - o) / d) ** 2 for f, o, d in zip(forecast, observed, denom)]
    return 100.0 * math.sqrt(math.fsum(terms) / len(terms))


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    ma, mb = mean(a), mean(b)
    cov = math.fsum((x - ma) * (y - mb) for x, y in zip(a, b))
    var_a = math.fsum((x - ma) ** 2 for x in a)
    var_b = math.fsum((y - mb) ** 2 for y in b)
    return cov / math.sqrt(var_a * var_b)


def pearson_centred_twice(a: Sequence[float], b: Sequence[float]) -> float:
    """Pearson r with every sum an fsum, clamped into [-1, 1].

    Each series is centred on its mean, then on the mean of its
    deviations, which takes out the first mean's rounding error. A
    constant series raises ZeroDivisionError.
    """

    def centred(values):
        m = mean(values)
        deviations = [v - m for v in values]
        m = mean(deviations)
        return [d - m for d in deviations]

    x, y = centred(a), centred(b)
    sxx = math.fsum(u * u for u in x)
    syy = math.fsum(v * v for v in y)
    r = math.fsum(u * v for u, v in zip(x, y)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def ols_slope(values: Sequence[float]) -> float:
    """Normal-equations slope of value against its index."""
    n = len(values)
    xm = (n - 1) / 2.0
    ym = mean(values)
    num = math.fsum((i - xm) * (v - ym) for i, v in enumerate(values))
    den = math.fsum((i - xm) ** 2 for i in range(n))
    return num / den


def correlated_pair(target_r: float, n: int = 24) -> tuple[list[float], list[float]]:
    """Two series whose sample Pearson correlation equals target_r.

    Built by mixing a unit-norm centered base with a unit-norm centered
    direction orthogonal to it.
    """
    base = [float(i) for i in range(n)]
    other = [float((-1) ** i) * (1.0 + i / n) for i in range(n)]
    bm = mean(base)
    base_c = [v - bm for v in base]
    om = mean(other)
    other_c = [v - om for v in other]
    proj = math.fsum(x * y for x, y in zip(base_c, other_c)) / math.fsum(x * x for x in base_c)
    ortho = [y - proj * x for x, y in zip(base_c, other_c)]
    base_norm = math.sqrt(math.fsum(x * x for x in base_c))
    ortho_norm = math.sqrt(math.fsum(x * x for x in ortho))
    mixed = [
        target_r * x / base_norm + math.sqrt(1.0 - target_r**2) * y / ortho_norm
        for x, y in zip(base_c, ortho)
    ]
    return base, mixed


def kalman_filter(
    values: Sequence[float], p0: float, q: float, r: float, m_t: float = 1.0, s: float = 1.0
) -> tuple[tuple[float, float], list[tuple[float, float, float, float, float]]]:
    """Scalar Kalman filter from the textbook equations.

    x' = m_t * x, p' = m_t^2 * p + q; k = p * s / (s^2 * p + r);
    x = x + k * (z - s * x), p = (1 - k * s) * p. The first value seeds
    x = z / s under variance p0 and is absorbed as a measurement with no
    prediction before it. Returns the seeded (estimate, variance) and, for
    each later value, (forecast, estimate, variance, gain, innovation).
    """

    def absorb(x, p, z):
        k = p * s / (s * s * p + r)
        return x + k * (z - s * x), (1.0 - k * s) * p, k

    x, p, _ = absorb(values[0] / s, p0, values[0])
    seed = (x, p)
    steps = []
    for z in values[1:]:
        x, p = m_t * x, m_t * m_t * p + q
        forecast = s * x
        x, p, k = absorb(x, p, z)
        steps.append((forecast, x, p, k, z - forecast))
    return seed, steps


def fused_filter(
    values: Sequence[float], p0: float, q: float, r: float, m_t: float = 1.0
) -> tuple[float, float, list[float], list[float], list[float], list[float], list[float]]:
    """The filter as one fused predict/update loop, each float operation in
    the order kalman.filter_series performs it.

    Returns the seed estimate and variance, then the forecast, estimate,
    variance, gain and innovation columns for every value after the first.
    Performs no validation: a non-finite last estimate or variance is what
    filter_series rejects.
    """
    forecasts, estimates, variances, gains, innovations = [], [], [], [], []
    x, p = values[0], p0
    for z in values:
        denominator = p + r
        k = p / denominator
        innovation = z - x
        forecasts.append(x)
        x = x + k * innovation
        p = min(p * r / denominator, p)
        estimates.append(x)
        variances.append(p)
        gains.append(k)
        innovations.append(innovation)
        x, p = m_t * x, m_t * m_t * p + q
    return estimates[0], variances[0], forecasts[1:], estimates[1:], variances[1:], gains[1:], innovations[1:]


def noise_estimate(values: Sequence[float]) -> tuple[float, float]:
    """kalman.estimate_noise from statistics.variance's exact-rational sums:
    1e-6 times the value variance and half the first-difference variance,
    or 1e-9 floors for a constant series. Lets OverflowError through."""
    values_var = statistics.variance(values)
    if values_var == 0:
        return 1e-9, 1e-9
    diff_var = statistics.variance([b - a for a, b in zip(values, values[1:])])
    return 1e-6 * values_var, diff_var / 2.0


def trace_csv_lines(series, trace, scale: float) -> Iterator[str]:
    """The lines of trace.csv, without terminators, one f-string a row.

    series needs start_time, bin_duration and values; trace the seed
    estimate and the forecast, estimate, gain and innovation columns.
    Every float is written by repr, estimates times scale.
    """
    values = series.values.tolist()
    starts = [series.start_time + i * series.bin_duration for i in range(len(values))]
    yield "bin_start,observed,forecast,filtered,gain,innovation"
    yield f"{starts[0]},{values[0]!r},,{scale * trace.initial_estimate!r},,"
    trace_columns = (trace.forecasts, trace.estimates, trace.gains, trace.innovations)
    columns = zip(starts[1:], values[1:], *(column.tolist() for column in trace_columns))
    for start, observed, forecast, estimate, gain, innovation in columns:
        yield f"{start},{observed!r},{forecast!r},{scale * estimate!r},{gain!r},{innovation!r}"


def series_csv_lines(series) -> Iterator[str]:
    """The lines of a series CSV, without terminators, one f-string a row;
    every float is written by repr."""
    yield "bin_start,pcu"
    for i, value in enumerate(series.values.tolist()):
        yield f"{series.start_time + i * series.bin_duration},{value!r}"


# Normalized label (lower case; spaces, hyphens and underscores removed)
# to canonical label: the nine classes and the aliases car and rickshaw.
_COUNT_LABELS = {
    "bus": "bus",
    "truck": "truck",
    "cng": "cng",
    "privatecar": "private_car",
    "car": "private_car",
    "commercialvehicle": "commercial_vehicle",
    "utility": "utility",
    "motorcycle": "motorcycle",
    "bicycle": "bicycle",
    "cyclerickshaw": "cycle_rickshaw",
    "rickshaw": "cycle_rickshaw",
}
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _epoch_seconds(text: str) -> int:
    text = text.strip()
    if re.fullmatch(r"[+-]?[0-9]+", text):
        return int(text)
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    moment = datetime.fromisoformat(text)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    assert moment.utcoffset() == timedelta(0), "only UTC timestamps are valid"
    return (moment - _EPOCH) // timedelta(seconds=1)


def aggregate_counts(
    text: str, factors: Mapping[str, float], bin_duration: int, start_time: int | None = None
) -> tuple[int, list[float]]:
    """Bins of PCU from the text of a valid counts CSV with unquoted fields.

    factors maps each canonical class label to its PCU factor. Every row
    adds count * factor to the half-open bin [start + i*bin, start +
    (i+1)*bin) that holds its timestamp, in file order; start defaults to
    the earliest timestamp rounded down to a multiple of the bin length.
    Returns (start, bin values through the latest timestamp).
    """
    lines = [line for line in text.lstrip("\ufeff").splitlines() if line]
    assert lines[0].lower() == "timestamp,vehicle_class,count"
    rows = []
    for line in lines[1:]:
        stamp, label, count = line.split(",")
        key = label.lower().replace(" ", "").replace("-", "").replace("_", "")
        rows.append((_epoch_seconds(stamp), factors[_COUNT_LABELS[key]], int(count)))
    stamps = [stamp for stamp, _, _ in rows]
    if start_time is None:
        start_time = min(stamps) - min(stamps) % bin_duration  # % is never negative here
    values = [0.0] * ((max(stamps) - start_time) // bin_duration + 1)
    for stamp, factor, count in rows:
        values[(stamp - start_time) // bin_duration] += count * factor
    return start_time, values


def histogram(values: Sequence[float], bin_count: int) -> list[tuple[float, int]]:
    """Equal-width bins over [min, max] as (lower edge, count), one value at
    a time: value v goes to bin int((v - lo) / span * bin_count), and the
    maximum to the last bin. A single-point range is one bin."""
    lo, hi = min(values), max(values)
    if lo == hi:
        return [(lo, len(values))]
    span = hi - lo
    counts = [0] * bin_count
    for v in values:
        counts[min(int((v - lo) / span * bin_count), bin_count - 1)] += 1
    return [(lo + i * span / bin_count, counts[i]) for i in range(bin_count)]


def m4_indices(columns: Sequence[int], values: Sequence[float]) -> list[int]:
    """The points M4 keeps of a line, as sorted indices.

    For each column number: the first and last point in it, and the first
    point holding its least and its greatest value.
    """
    members: dict[int, list[int]] = {}
    for i, column in enumerate(columns):
        members.setdefault(column, []).append(i)
    kept = set()
    for indices in members.values():
        kept.update((
            indices[0],
            indices[-1],
            min(indices, key=lambda i: values[i]),
            max(indices, key=lambda i: values[i]),
        ))
    return sorted(kept)


def pixel_cells(px: Sequence[float], py: Sequence[float]) -> list[tuple[int, int]]:
    """(index of its first point, point count) for each 1 px cell
    (floor x, floor y) that holds a point, in the order cells are first met."""
    cells: dict[tuple[int, int], tuple[int, int]] = {}
    for i, (x, y) in enumerate(zip(px, py)):
        cell = (math.floor(x), math.floor(y))
        first, count = cells.get(cell, (i, 0))
        cells[cell] = (first, count + 1)
    return list(cells.values())


def scatter_marks(px: np.ndarray, py: np.ndarray, color: str, height: float) -> list[str]:
    """The scatter's <circle> marks for points at pixels (px, py), as the
    float-key form drew them: a cell key of floor(x) * height + floor(y),
    np.unique for each cell's first point and count, and the cells in the
    order of their first points."""
    cells = np.floor(px) * height + np.floor(py)
    _, first, counts = np.unique(cells, return_index=True, return_counts=True)
    order = np.argsort(first)
    return [
        f'<circle cx="{px[i]:.2f}" cy="{py[i]:.2f}" r="3" fill="{color}" fill-opacity="{1.0 - 0.25**count:.6g}"/>'
        for i, count in zip(first[order].tolist(), counts[order].tolist())
    ]
