"""Deterministic SVG renderings of the evaluation figures.

The SVG text is assembled by hand with fixed coordinate formatting, so
identical inputs produce byte-identical files. No plotting library is
involved; golden-file tests stay stable across environments. A figure's
size is bounded by its pixel area: the time series keeps the M4 points
of each pixel column, and the scatter draws one mark per pixel cell.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Sequence

import numpy as np

from flowcast.io import atomic_write_text
from flowcast.metrics import DescriptiveStats, EvaluationReport, fsum_mean, histogram, trend_slope
from flowcast.series import FlowSeries

WIDTH = 640.0
HEIGHT = 420.0
MARGIN_LEFT = 64.0
MARGIN_RIGHT = 20.0
MARGIN_TOP = 42.0
MARGIN_BOTTOM = 46.0

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


def _pad_range(lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        pad = abs(lo) * 0.05 + 1.0
        return lo - pad, lo + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


class _Frame:
    """Maps data coordinates onto the fixed plot area."""

    def __init__(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.left = MARGIN_LEFT
        self.right = WIDTH - MARGIN_RIGHT
        self.top = MARGIN_TOP
        self.bottom = HEIGHT - MARGIN_BOTTOM

    def x(self, v: float) -> float:
        return self.left + (v - self.x_lo) / (self.x_hi - self.x_lo) * (self.right - self.left)

    def y(self, v: float) -> float:
        return self.bottom - (v - self.y_lo) / (self.y_hi - self.y_lo) * (self.bottom - self.top)

    def axes(self) -> list[str]:
        parts = [
            f'<rect x="{_fmt(self.left)}" y="{_fmt(self.top)}" width="{_fmt(self.right - self.left)}" '
            f'height="{_fmt(self.bottom - self.top)}" fill="none" stroke="#444444" stroke-width="1"/>'
        ]
        for frac in (0.0, 0.5, 1.0):
            yv = self.y_lo + frac * (self.y_hi - self.y_lo)
            xv = self.x_lo + frac * (self.x_hi - self.x_lo)
            parts.append(
                f'<text x="{_fmt(self.left - 6)}" y="{_fmt(self.y(yv) + 4)}" font-size="11" '
                f'text-anchor="end" fill="#333333">{_label(yv)}</text>'
            )
            parts.append(
                f'<text x="{_fmt(self.x(xv))}" y="{_fmt(self.bottom + 16)}" font-size="11" '
                f'text-anchor="middle" fill="#333333">{_label(xv)}</text>'
            )
        return parts


def _document(title: str, body: list[str]) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" '
        f'viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">',
        f'<rect x="0" y="0" width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" fill="#ffffff"/>',
        f'<text x="{_fmt(WIDTH / 2)}" y="24" font-size="15" text-anchor="middle" '
        f'fill="#111111">{html.escape(title)}</text>',
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
        body.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(frame.bottom - y0)}" fill="{color}" fill-opacity="0.8" '
            f'stroke="#ffffff" stroke-width="1"/>'
        )
    return _document(title, body)


def boxplot_svg(groups: Sequence[tuple[str, DescriptiveStats]], title: str) -> str:
    y_lo = min(s.min for _, s in groups)
    y_hi = max(s.max for _, s in groups)
    y_lo, y_hi = _pad_range(y_lo, y_hi)
    frame = _Frame(0.0, float(len(groups)), y_lo, y_hi)
    body = frame.axes()
    colors = (OBSERVED_COLOR, PREDICTED_COLOR)
    for i, (name, s) in enumerate(groups):
        center = i + 0.5
        half = 0.18
        color = colors[i % len(colors)]
        cx = frame.x(center)
        x0, x1 = frame.x(center - half), frame.x(center + half)
        for level in (s.min, s.max):
            body.append(
                f'<line x1="{_fmt(frame.x(center - half / 2))}" y1="{_fmt(frame.y(level))}" '
                f'x2="{_fmt(frame.x(center + half / 2))}" y2="{_fmt(frame.y(level))}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        body.append(
            f'<line x1="{_fmt(cx)}" y1="{_fmt(frame.y(s.min))}" x2="{_fmt(cx)}" '
            f'y2="{_fmt(frame.y(s.q1))}" stroke="{color}" stroke-width="1"/>'
        )
        body.append(
            f'<line x1="{_fmt(cx)}" y1="{_fmt(frame.y(s.q3))}" x2="{_fmt(cx)}" '
            f'y2="{_fmt(frame.y(s.max))}" stroke="{color}" stroke-width="1"/>'
        )
        body.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(frame.y(s.q3))}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(frame.y(s.q1) - frame.y(s.q3))}" fill="{color}" fill-opacity="0.25" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        body.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(frame.y(s.median))}" x2="{_fmt(x1)}" '
            f'y2="{_fmt(frame.y(s.median))}" stroke="{color}" stroke-width="2"/>'
        )
        body.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(frame.bottom + 32)}" font-size="12" '
            f'text-anchor="middle" fill="#333333">{html.escape(name)}</text>'
        )
    return _document(title, body)


def scatter_svg(x_values: Sequence[float], y_values: Sequence[float], title: str) -> str:
    x_values = np.asarray(x_values, dtype=float)
    y_values = np.asarray(y_values, dtype=float)
    lo = float(min(x_values.min(), y_values.min()))
    hi = float(max(x_values.max(), y_values.max()))
    lo, hi = _pad_range(lo, hi)
    frame = _Frame(lo, hi, lo, hi)
    body = frame.axes()
    body.append(
        f'<line x1="{_fmt(frame.x(lo))}" y1="{_fmt(frame.y(lo))}" x2="{_fmt(frame.x(hi))}" '
        f'y2="{_fmt(frame.y(hi))}" stroke="{TREND_COLOR}" stroke-width="1" stroke-dasharray="5,4"/>'
    )
    # One mark per occupied 1 px cell, at the cell's first point, in the
    # order cells are first met. Its opacity is that of the cell's points
    # stacked at 0.75 each, so a lone point reads 0.75.
    xs = frame.x(x_values)
    ys = frame.y(y_values)
    # Pixel y lies in [0, HEIGHT), so the key is unique per cell.
    cells = np.floor(xs) * HEIGHT + np.floor(ys)
    _, first, counts = np.unique(cells, return_index=True, return_counts=True)
    order = np.argsort(first)
    first, counts = first[order], counts[order]
    for xv, yv, count in zip(xs[first].tolist(), ys[first].tolist(), counts.tolist()):
        body.append(
            f'<circle cx="{xv:.2f}" cy="{yv:.2f}" r="3" '
            f'fill="{OBSERVED_COLOR}" fill-opacity="{1.0 - 0.25**count:.6g}"/>'
        )
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
    return np.unique(np.concatenate(kept))


def _polyline(frame: _Frame, values: Sequence[float], color: str, dash: str = "") -> str:
    """The line through (i, values[i]), keeping the M4 points of each 1 px column.

    M4 (Jugel et al. 2014) keeps the first, last, lowest and highest point
    of each pixel column, which is all a line drawn at that width shows.
    The column is the floor of the x pixel, so a line of up to 557 points
    has at most two points a column and keeps all of them.
    """
    v = np.asarray(values, dtype=float)
    xs = frame.x(np.arange(v.size))
    ys = frame.y(v)
    kept = _m4(np.floor(xs), v)
    points = " ".join(map("{:.2f},{:.2f}".format, xs[kept].tolist(), ys[kept].tolist()))
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"{dash_attr}/>'


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
    body.append(
        f'<line x1="{_fmt(frame.x(0.0))}" y1="{_fmt(frame.y(trend_y0))}" '
        f'x2="{_fmt(frame.x(float(n - 1)))}" y2="{_fmt(frame.y(trend_y1))}" '
        f'stroke="{TREND_COLOR}" stroke-width="1.5" stroke-dasharray="6,4"/>'
    )
    body.append(_polyline(frame, observed, OBSERVED_COLOR))
    body.append(_polyline(frame, predicted, PREDICTED_COLOR))
    body.append(
        f'<text x="{_fmt(frame.left + 8)}" y="{_fmt(frame.top + 14)}" font-size="11" '
        f'fill="{OBSERVED_COLOR}">observed</text>'
    )
    body.append(
        f'<text x="{_fmt(frame.left + 8)}" y="{_fmt(frame.top + 28)}" font-size="11" '
        f'fill="{PREDICTED_COLOR}">predicted</text>'
    )
    return _document(title, body)


def render_plots(
    observed: FlowSeries,
    predicted: Sequence[float],
    report: EvaluationReport,
    out_dir: str | Path,
    histogram_bins: int = 8,
) -> list[Path]:
    """Write the five evaluation figures into out_dir; returns the paths.

    observed and predicted must be the aligned pair the report was built
    from (one value per forecasted bin).
    """
    out_dir = Path(out_dir)
    observed_values = np.asarray(observed.values, dtype=float)
    predicted_values = np.asarray(predicted, dtype=float)
    documents = {
        "observed_histogram.svg": histogram_svg(
            observed_values, histogram_bins, "Observed flow histogram (PCU per bin)", OBSERVED_COLOR
        ),
        "predicted_histogram.svg": histogram_svg(
            predicted_values, histogram_bins, "Predicted flow histogram (PCU per bin)", PREDICTED_COLOR
        ),
        "boxplot.svg": boxplot_svg(
            [("observed", report.observed_stats), ("predicted", report.predicted_stats)],
            "Observed vs predicted flow (PCU per bin)",
        ),
        "scatter.svg": scatter_svg(
            observed_values, predicted_values, "Predicted vs observed flow with identity line"
        ),
        "timeseries.svg": timeseries_svg(
            observed_values, predicted_values, "Flow by bin with observed trend"
        ),
    }
    paths = []
    for name in PLOT_FILENAMES:
        path = out_dir / name
        atomic_write_text(path, documents[name])
        paths.append(path)
    return paths
