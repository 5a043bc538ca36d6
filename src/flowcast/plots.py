"""Deterministic SVG renderings of the evaluation figures.

The SVG text is assembled by hand with fixed coordinate formatting, so
identical inputs produce byte-identical files. No plotting library is
involved; golden-file tests stay stable across environments. A figure's
size is bounded by its pixel area: the time series keeps the M4 points
of each pixel column, and the scatter draws one mark per pixel cell. The
scatter keys each point by its cell as an integer, counts the cells with
np.bincount and finds each one's first point with np.minimum.at, so only
the occupied cells are sorted, not the points.

Every element inside the root <svg>, except the scatter's marks, is
written by _tag: a float attribute with two decimals (_fmt), any other
value as str. So a style number such as stroke-width="1.5" is passed as
a string. The marks come from one % template, which formats a float as
the f-string does, with each distinct opacity text made once.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Sequence

import numpy as np

from flowcast.io import atomic_write_text
from flowcast.metrics import DescriptiveStats, EvaluationReport, fsum_mean, histogram, trend_slope

WIDTH = 640.0
HEIGHT = 420.0
MARGIN_LEFT = 64.0
MARGIN_RIGHT = 20.0
MARGIN_TOP = 42.0
MARGIN_BOTTOM = 46.0
# The most bins a histogram figure takes: one a pixel column of the plot area.
MAX_HISTOGRAM_BINS = int(WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

OBSERVED_COLOR = "#1f6fb4"
PREDICTED_COLOR = "#d97706"
TREND_COLOR = "#777777"

PLOT_FILENAMES = (
    "observed_histogram.svg",
    "predicted_histogram.svg",
    "boxplot.svg",
    "scatter.svg",
    "timeseries.svg",
)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _label(value: float) -> str:
    return f"{value:.6g}"


def _tag(name: str, content: str = "", **attributes) -> str:
    """One SVG element; an "_" in an attribute name becomes "-", and an
    element without content closes itself."""
    attrs = "".join(
        f' {key.replace("_", "-")}="{_fmt(value) if isinstance(value, float) else value}"'
        for key, value in attributes.items()
    )
    return f"<{name}{attrs}>{content}</{name}>" if content else f"<{name}{attrs}/>"


def _pad_range(lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        pad = abs(lo) * 0.05 + 1.0
        return lo - pad, lo + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


class _Frame:
    """Maps data coordinates onto the fixed plot area."""

    left = MARGIN_LEFT
    right = WIDTH - MARGIN_RIGHT
    top = MARGIN_TOP
    bottom = HEIGHT - MARGIN_BOTTOM

    def __init__(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi

    def x(self, v: float) -> float:
        return self.left + (v - self.x_lo) / (self.x_hi - self.x_lo) * (self.right - self.left)

    def y(self, v: float) -> float:
        return self.bottom - (v - self.y_lo) / (self.y_hi - self.y_lo) * (self.bottom - self.top)

    def axes(self) -> list[str]:
        parts = [
            _tag("rect", x=self.left, y=self.top, width=self.right - self.left, height=self.bottom - self.top,
                 fill="none", stroke="#444444", stroke_width=1)
        ]
        for frac in (0.0, 0.5, 1.0):
            yv = self.y_lo + frac * (self.y_hi - self.y_lo)
            xv = self.x_lo + frac * (self.x_hi - self.x_lo)
            parts.append(_tag("text", _label(yv), x=self.left - 6, y=self.y(yv) + 4, font_size=11,
                              text_anchor="end", fill="#333333"))
            parts.append(_tag("text", _label(xv), x=self.x(xv), y=self.bottom + 16, font_size=11,
                              text_anchor="middle", fill="#333333"))
        return parts


def _document(title: str, body: list[str]) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" '
        f'viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">',
        _tag("rect", x=0, y=0, width=WIDTH, height=HEIGHT, fill="#ffffff"),
        _tag("text", html.escape(title), x=WIDTH / 2, y=24, font_size=15, text_anchor="middle", fill="#111111"),
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def histogram_svg(values: Sequence[float], bin_count: int, title: str, color: str) -> str:
    bins = histogram(values, bin_count)
    lo, hi = float(np.min(values)), float(np.max(values))
    x_lo, x_hi = _pad_range(lo, hi)
    max_count = max(c for _, c in bins)
    frame = _Frame(x_lo, x_hi, 0.0, max_count * 1.05)
    body = frame.axes()
    width = (hi - lo) / len(bins) if hi > lo else (x_hi - x_lo) * 0.5
    for edge, count in bins:
        x0 = frame.x(edge)
        x1 = frame.x(edge + width)
        y0 = frame.y(count)
        body.append(_tag("rect", x=x0, y=y0, width=x1 - x0, height=frame.bottom - y0, fill=color,
                         fill_opacity="0.8", stroke="#ffffff", stroke_width=1))
    return _document(title, body)


def boxplot_svg(groups: Sequence[tuple[str, DescriptiveStats]], title: str) -> str:
    y_lo = min(s.min for _, s in groups)
    y_hi = max(s.max for _, s in groups)
    y_lo, y_hi = _pad_range(y_lo, y_hi)
    frame = _Frame(0.0, float(len(groups)), y_lo, y_hi)
    body = frame.axes()
    for i, ((name, s), color) in enumerate(zip(groups, (OBSERVED_COLOR, PREDICTED_COLOR))):
        center = i + 0.5
        half = 0.18
        cx = frame.x(center)
        x0, x1 = frame.x(center - half), frame.x(center + half)
        for level in (s.min, s.max):
            body.append(_tag("line", x1=frame.x(center - half / 2), y1=frame.y(level), x2=frame.x(center + half / 2),
                             y2=frame.y(level), stroke=color, stroke_width="1.5"))
        for lo, hi in ((s.min, s.q1), (s.q3, s.max)):
            body.append(_tag("line", x1=cx, y1=frame.y(lo), x2=cx, y2=frame.y(hi), stroke=color, stroke_width=1))
        body.append(_tag("rect", x=x0, y=frame.y(s.q3), width=x1 - x0, height=frame.y(s.q1) - frame.y(s.q3),
                         fill=color, fill_opacity="0.25", stroke=color, stroke_width="1.5"))
        body.append(_tag("line", x1=x0, y1=frame.y(s.median), x2=x1, y2=frame.y(s.median), stroke=color,
                         stroke_width=2))
        body.append(_tag("text", html.escape(name), x=cx, y=frame.bottom + 32, font_size=12, text_anchor="middle",
                         fill="#333333"))
    return _document(title, body)


def scatter_svg(x_values: Sequence[float], y_values: Sequence[float], title: str) -> str:
    x_values = np.asarray(x_values, dtype=float)
    y_values = np.asarray(y_values, dtype=float)
    lo = float(min(x_values.min(), y_values.min()))
    hi = float(max(x_values.max(), y_values.max()))
    lo, hi = _pad_range(lo, hi)
    frame = _Frame(lo, hi, lo, hi)
    body = frame.axes()
    body.append(_tag("line", x1=frame.x(lo), y1=frame.y(lo), x2=frame.x(hi), y2=frame.y(hi), stroke=TREND_COLOR,
                     stroke_width=1, stroke_dasharray="5,4"))
    # One mark per occupied 1 px cell, at the cell's first point, in the
    # order cells are first met. Its opacity is that of the cell's points
    # stacked at 0.75 each, so a lone point reads 0.75.
    xs = frame.x(x_values)
    ys = frame.y(y_values)
    # Pixels lie in [0, WIDTH) x [0, HEIGHT), so the key is unique per cell and small.
    cells = np.floor(xs).astype(np.int64) * int(HEIGHT) + np.floor(ys).astype(np.int64)
    counts = np.bincount(cells)
    first = np.full(counts.size, cells.size)
    np.minimum.at(first, cells, np.arange(cells.size))
    occupied = np.flatnonzero(counts)
    order = occupied[np.argsort(first[occupied])]
    first, counts = first[order], counts[order].tolist()
    # Written without _tag: the only element drawn once per data point,
    # about 16k times on a year of bins.
    mark = f'<circle cx="%.2f" cy="%.2f" r="3" fill="{OBSERVED_COLOR}" fill-opacity="%s"/>'
    opacity = {count: f"{1.0 - 0.25**count:.6g}" for count in set(counts)}
    body += [mark % (xv, yv, opacity[count]) for xv, yv, count in zip(xs[first].tolist(), ys[first].tolist(), counts)]
    return _document(title, body)


def _m4(columns: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sorted indices of the first, last, lowest and highest value in each
    run of equal columns; ties go to the earliest point.

    columns must be non-decreasing.
    """
    index = np.arange(values.size)
    starts = np.flatnonzero(np.diff(columns, prepend=-np.inf))
    ends = np.append(starts[1:], values.size) - 1
    sizes = ends - starts + 1
    kept = [starts, ends]
    for reduce in (np.minimum, np.maximum):
        extreme = np.repeat(reduce.reduceat(values, starts), sizes)
        kept.append(np.minimum.reduceat(np.where(values == extreme, index, values.size), starts))
    # Sorted, repeats dropped: a bare np.unique would import numpy.ma.
    kept = np.sort(np.concatenate(kept))
    return kept[np.diff(kept, prepend=-1) > 0]


def _polyline(frame: _Frame, values: np.ndarray, color: str) -> str:
    """The line through (i, values[i]), keeping the M4 points of each 1 px column.

    M4 (Jugel et al. 2014) keeps the first, last, lowest and highest point
    of each pixel column, which is all a line drawn at that width shows.
    The column is the floor of the x pixel, so a line of up to 557 points
    has at most two points a column and keeps all of them.
    """
    xs = frame.x(np.arange(values.size))
    ys = frame.y(values)
    kept = _m4(np.floor(xs), values)
    points = " ".join(map("{:.2f},{:.2f}".format, xs[kept].tolist(), ys[kept].tolist()))
    return _tag("polyline", points=points, fill="none", stroke=color, stroke_width="1.5")


def timeseries_svg(observed: Sequence[float], predicted: Sequence[float], title: str) -> str:
    """Observed and predicted overlaid by bin index, with the OLS trend of
    the observed values as a dashed line."""
    observed = np.asarray(observed, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    n = observed.size
    y_lo = float(min(observed.min(), predicted.min()))
    y_hi = float(max(observed.max(), predicted.max()))
    y_lo, y_hi = _pad_range(y_lo, y_hi)
    frame = _Frame(0.0, float(max(n - 1, 1)), y_lo, y_hi)
    body = frame.axes()

    # A single point has no trend; its line is flat.
    slope = trend_slope(observed) if n > 1 else 0.0
    intercept = fsum_mean(observed) - slope * ((n - 1) / 2.0)
    trend_y0 = min(max(intercept, y_lo), y_hi)
    trend_y1 = min(max(intercept + slope * (n - 1), y_lo), y_hi)
    body.append(_tag("line", x1=frame.x(0.0), y1=frame.y(trend_y0), x2=frame.x(float(n - 1)), y2=frame.y(trend_y1),
                     stroke=TREND_COLOR, stroke_width="1.5", stroke_dasharray="6,4"))
    body.append(_polyline(frame, observed, OBSERVED_COLOR))
    body.append(_polyline(frame, predicted, PREDICTED_COLOR))
    for row, (label, color) in enumerate((("observed", OBSERVED_COLOR), ("predicted", PREDICTED_COLOR)), start=1):
        body.append(_tag("text", label, x=frame.left + 8, y=frame.top + 14 * row, font_size=11, fill=color))
    return _document(title, body)


def render_plots(
    observed: Sequence[float],
    predicted: Sequence[float],
    report: EvaluationReport,
    out_dir: str | Path,
    histogram_bins: int = 8,
) -> list[Path]:
    """Write the five evaluation figures into out_dir; returns the paths.

    observed and predicted must be the aligned pair the report was built
    from (one value per forecasted bin).
    """
    documents = (
        histogram_svg(observed, histogram_bins, "Observed flow histogram (PCU per bin)", OBSERVED_COLOR),
        histogram_svg(predicted, histogram_bins, "Predicted flow histogram (PCU per bin)", PREDICTED_COLOR),
        boxplot_svg(
            [("observed", report.observed_stats), ("predicted", report.predicted_stats)],
            "Observed vs predicted flow (PCU per bin)",
        ),
        scatter_svg(observed, predicted, "Predicted vs observed flow with identity line"),
        timeseries_svg(observed, predicted, "Flow by bin with observed trend"),
    )
    paths = [Path(out_dir) / name for name in PLOT_FILENAMES]
    for path, document in zip(paths, documents):
        atomic_write_text(path, document)
    return paths
