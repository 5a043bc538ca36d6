"""Output checks made apart from the program.

Each check compares one invocation's outputs with a computation written
here from the README's definitions (filter recursion, percent errors,
Pearson correlation) or with a property the filter must have. Nothing
pins q, r, a score or output bytes.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import xml.parsers.expat
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TRACE_HEADER = ["bin_start", "observed", "forecast", "filtered", "gain", "innovation"]
PLOT_FILES = ("observed_histogram.svg", "predicted_histogram.svg", "boxplot.svg", "scatter.svg", "timeseries.svg")
OUTPUT_FILES = ("report.json", "trace.csv") + PLOT_FILES
SVG_NS = "http://www.w3.org/2000/svg"

# The oracle repeats the program's float64 arithmetic in another order and
# with the textbook variance update (1 - k*s)*p, so values may differ by
# rounding that the filter's contraction keeps bounded (under 100 ulps on a
# year of bins). 2**20 ulps of relative slack is far above that and far
# below any change to the model.
REL_TOL = 2.0**20 * sys.float_info.epsilon


class CheckFailed(Exception):
    pass


@dataclass
class OpOutputs:
    """What one verified invocation contributes to the pooled metrics."""

    bins: int
    output_bytes: int
    trace_bytes: int
    svg_bytes: int
    abs_pct_error_sum: float      # sum of |f - o| / o over scored bins
    scored: int
    innovations: list[float] = field(repr=False)
    q: float
    r: float
    final_gain: float


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(actual, expected, scale: float):
    """Elementwise agreement within REL_TOL of the magnitudes (plus scale)."""
    return np.abs(actual - expected) <= REL_TOL * (np.abs(actual) + np.abs(expected) + scale)


def _read_trace(path: Path) -> list[tuple[str, ...]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    _require(bool(rows) and rows[0] == TRACE_HEADER, f"{path}: unexpected trace header")
    _require(len(rows) > 2 and all(len(row) == len(TRACE_HEADER) for row in rows), f"{path}: ragged trace")
    return list(zip(*rows[1:]))


def _check_svg(path: Path) -> None:
    root = []
    parser = xml.parsers.expat.ParserCreate(namespace_separator=" ")

    def first_element(name, _attributes):
        root.append(name)
        parser.StartElementHandler = None

    parser.StartElementHandler = first_element
    try:
        parser.Parse(path.read_bytes(), True)
    except xml.parsers.expat.ExpatError as exc:
        raise CheckFailed(f"{path}: not well-formed XML: {exc}") from None
    _require(root == [f"{SVG_NS} svg"], f"{path}: root element is {root[:1]}, not svg")


def _filter_oracle(z: list[float], p0: float, m_t: float, s: float, q: float, r: float):
    """The README's scalar filter, in plain floats.

    Returns per-bin lists (forecast, filtered, gain, innovation); the first
    bin seeds the state and is absorbed with zero innovation, so the
    forecast, gain and innovation lists start at the second bin.
    """
    x = z[0] / s
    p = p0
    k = p * s / (s * s * p + r)
    p = (1.0 - k * s) * p
    forecasts, filtered, gains, innovations = [], [s * x], [], []
    for obs in z[1:]:
        x = m_t * x
        p = m_t * m_t * p + q
        k = p * s / (s * s * p + r)
        forecast = s * x
        innovation = obs - forecast
        x = x + k * innovation
        p = (1.0 - k * s) * p
        forecasts.append(forecast)
        filtered.append(s * x)
        gains.append(k)
        innovations.append(innovation)
    return forecasts, filtered, gains, innovations


def _pearson(a: list[float], b: list[float]) -> float:
    ma = math.fsum(a) / len(a)
    mb = math.fsum(b) / len(b)
    sab = math.fsum((x - ma) * (y - mb) for x, y in zip(a, b))
    saa = math.fsum((x - ma) ** 2 for x in a)
    sbb = math.fsum((y - mb) ** 2 for y in b)
    return sab / math.sqrt(saa * sbb)


def verify(out_dir: Path, start: int, bin_seconds: int, pcu: tuple[float, ...]) -> OpOutputs:
    """Check one successful invocation's outputs; raise CheckFailed on a mismatch."""
    sizes = {}
    for name in OUTPUT_FILES:
        path = out_dir / name
        _require(path.is_file(), f"{path}: missing")
        sizes[name] = path.stat().st_size
    for name in PLOT_FILES:
        _check_svg(out_dir / name)

    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    params = report["params"]
    p0, m_t, s, q, r = (float(params[key]) for key in ("p0", "m_t", "m_m", "q", "r"))
    _require(all(math.isfinite(v) for v in (p0, m_t, s, q, r)) and q >= 0 and r >= 0 and p0 >= 0,
             f"{out_dir}: implausible params {params}")

    columns = _read_trace(out_dir / "trace.csv")
    _require(len(columns[0]) == len(pcu), f"{out_dir}: {len(columns[0])} trace rows for {len(pcu)} bins")
    starts = np.array(columns[0]).astype(np.int64)
    observed = np.array(columns[1], dtype=float)
    own = np.array(pcu)
    bad = np.flatnonzero((starts != start + bin_seconds * np.arange(len(pcu))) | (observed != own))
    if bad.size:
        i = int(bad[0])
        raise CheckFailed(f"{out_dir}: bin {i} is {columns[0][i]},{columns[1][i]}; "
                          f"expected {start + i * bin_seconds},{pcu[i]!r}")
    _require(columns[2][0] == columns[4][0] == columns[5][0] == "", f"{out_dir}: the seed bin has a forecast")

    forecast, filtered, gain, innovation = (np.array(columns[j][i:], dtype=float) for j, i in ((2, 1), (3, 0), (4, 1), (5, 1)))
    oracle = [np.array(v) for v in _filter_oracle(observed.tolist(), p0, m_t, s, q, r)]
    scale = float(np.mean(np.abs(observed))) + 1.0
    comparisons = (
        ("forecast", forecast, oracle[0], scale, 1),
        ("filtered", filtered, oracle[1], scale, 0),
        ("gain", gain, oracle[2], 1.0, 1),
        ("innovation", innovation, oracle[3], scale, 1),
        # Causality: the forecast for bin i is the filtered value of bin
        # i-1 carried one step, so it was made before bin i was seen.
        ("causal forecast", forecast, m_t * filtered[:-1], scale, 1),
    )
    for name, actual, expected, tolerance_scale, first_bin in comparisons:
        bad = np.flatnonzero(~_close(actual, expected, tolerance_scale))
        if bad.size:
            i = int(bad[0])
            raise CheckFailed(f"{out_dir}: bin {i + first_bin} {name} {float(actual[i])!r}, expected {float(expected[i])!r}")
    _require(bool(np.all((gain > 0.0) & (gain <= 1.0))), f"{out_dir}: a gain lies outside (0, 1]")

    f = forecast.tolist()
    o = observed[1:].tolist()
    n = len(o)
    # The report's scores use the program's default forecast denominator.
    mape = 100.0 * math.fsum(abs(a - b) / abs(a) for a, b in zip(f, o)) / n
    rmspe = 100.0 * math.sqrt(math.fsum(((a - b) / a) ** 2 for a, b in zip(f, o)) / n)
    r_squared = _pearson(f, o) ** 2
    for key, value in (("mape_percent", mape), ("rmspe_percent", rmspe), ("r_squared", r_squared)):
        _require(bool(_close(float(report[key]), value, 0.0)),
                 f"{out_dir}: report {key} {report[key]!r}, recomputed {value!r}")

    return OpOutputs(
        bins=len(pcu),
        output_bytes=sum(sizes.values()),
        trace_bytes=sizes["trace.csv"],
        svg_bytes=sum(sizes[name] for name in PLOT_FILES),
        abs_pct_error_sum=math.fsum(abs(a - b) / b for a, b in zip(f, pcu[1:])),
        scored=n,
        innovations=innovation.tolist(),
        q=q,
        r=r,
        final_gain=float(gain[-1]),
    )


def innovation_acf1(e: list[float]) -> float:
    """Lag-1 autocorrelation of the innovations, centred on their mean."""
    mean = math.fsum(e) / len(e)
    c = [v - mean for v in e]
    return math.fsum(a * b for a, b in zip(c, c[1:])) / math.fsum(v * v for v in c)
