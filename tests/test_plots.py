"""SVG figure rendering: file contract, determinism, degenerate input."""

import hashlib
import math
import random
import re
import xml.etree.ElementTree as ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowcast.kalman import FilterParams, filter_series
from flowcast.metrics import build_report, trend_slope
from flowcast.plots import (
    HEIGHT,
    OBSERVED_COLOR,
    PLOT_FILENAMES,
    PREDICTED_COLOR,
    _Frame,
    _pad_range,
    render_plots,
    scatter_svg,
    timeseries_svg,
)
from flowcast.series import FlowSeries

import oracles


def _pipeline(values):
    series = FlowSeries(0, 300, tuple(values))
    params = FilterParams(process_var=2.0, measurement_var=30.0)
    trace = filter_series(series, params)
    report = build_report(series, trace.forecasts)
    return series, trace, report


def test_render_writes_five_named_files(tmp_path):
    series, trace, report = _pipeline([100.0, 112.0, 108.0, 123.0, 131.0, 127.0])
    paths = render_plots(series.values[1:], trace.forecasts, report, tmp_path)
    assert [p.name for p in paths] == list(PLOT_FILENAMES)
    for path in paths:
        assert path.exists()
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")


def test_rendered_svg_is_well_formed_xml(tmp_path):
    series, trace, report = _pipeline([100.0, 112.0, 108.0, 123.0, 131.0, 127.0])
    for path in render_plots(series.values[1:], trace.forecasts, report, tmp_path):
        ElementTree.fromstring(path.read_text())


def test_rendering_is_deterministic(tmp_path):
    series, trace, report = _pipeline([100.0, 112.0, 108.0, 123.0, 131.0, 127.0])
    first = render_plots(series.values[1:], trace.forecasts, report, tmp_path / "a")
    second = render_plots(series.values[1:], trace.forecasts, report, tmp_path / "b")
    for one, two in zip(first, second):
        assert one.read_bytes() == two.read_bytes()


def test_constant_predictions_render_without_error(tmp_path):
    # pearson over a constant is undefined, so the report comes from a
    # non-degenerate run while the plotted predictions are constant.
    series, trace, report = _pipeline([100.0, 112.0, 108.0, 123.0, 131.0])
    constant = tuple(100.0 for _ in trace.forecasts)
    paths = render_plots(series.values[1:], constant, report, tmp_path)
    assert len(paths) == 5
    for path in paths:
        ElementTree.fromstring(path.read_text())
    # Pins the single-bin histogram and the degenerate _pad_range branch,
    # which no 36-bin preset reaches.
    assert [hashlib.sha256(path.read_bytes()).hexdigest() for path in paths] == [
        "fe62ab0f71f56f9f9945b084a65d8d5024bce40b654dfa93ddf377063f020f7f",
        "1daabb066b92c09c9ec88f2a83d24f7287cea149ea677e003954d69f9cec269e",
        "add049c236f57bac38f44d5eef58fc27e3d825a876ba76924fb0fa661943e8dd",
        "b8d27042191a1ad3e520793d07881316d719870dc97224c3204de0457067aa6a",
        "b33160aa9eef7b86b331b0ce0da4ef99e6d1ba7208e0fd3961f4fa307630949f",
    ]


def _trend_line_pixels(svg_text):
    match = re.search(
        r'<line x1="([0-9.]+)" y1="([0-9.]+)" x2="([0-9.]+)" y2="([0-9.]+)" '
        r'stroke="#777777" stroke-width="1.5" stroke-dasharray="6,4"/>',
        svg_text,
    )
    assert match is not None
    return tuple(float(g) for g in match.groups())


def test_timeseries_trend_line_rises_with_growing_flow():
    observed = [100.0 + 8.0 * i for i in range(10)]
    predicted = [v - 5.0 for v in observed]
    svg = timeseries_svg(observed, predicted, "overlay")
    x1, y1, x2, y2 = _trend_line_pixels(svg)
    # Pixel y grows downward, so a rising trend means y2 < y1.
    assert x2 > x1
    assert y2 < y1
    assert trend_slope(observed) > 0


def test_timeseries_trend_line_flat_for_constant_flow():
    observed = [50.0] * 8
    predicted = [50.0] * 8
    svg = timeseries_svg(observed, predicted, "overlay")
    _, y1, _, y2 = _trend_line_pixels(svg)
    assert y1 == pytest.approx(y2, abs=0.02)


def _line_points(svg_text, color):
    match = re.search(rf'<polyline points="([^"]*)" fill="none" stroke="{color}"', svg_text)
    assert match is not None
    return match.group(1).split(" ")


def _series_pair(max_size):
    """Two equal-length series, half their values small integers so that
    ties and repeated extremes are common. Drawn from a seeded generator,
    since Hypothesis builds lists of thousands slowly."""

    def build(n, seed):
        rng = random.Random(seed)
        draw = lambda: float(rng.randint(0, 20)) if rng.random() < 0.5 else rng.uniform(-1e4, 1e4)
        return [draw() for _ in range(n)], [draw() for _ in range(n)]

    return st.builds(build, st.integers(1, max_size), st.integers(0, 2**32 - 1))


def _timeseries_frame(observed, predicted):
    y_lo, y_hi = _pad_range(min(observed + predicted), max(observed + predicted))
    return _Frame(0.0, float(max(len(observed) - 1, 1)), y_lo, y_hi)


@settings(max_examples=60, deadline=None)
@given(_series_pair(3000))
def test_timeseries_keeps_the_m4_points_of_each_pixel_column(pair):
    observed, predicted = pair
    svg = timeseries_svg(observed, predicted, "overlay")
    frame = _timeseries_frame(observed, predicted)
    for values, color in ((observed, OBSERVED_COLOR), (predicted, PREDICTED_COLOR)):
        px = [frame.x(i) for i in range(len(values))]
        py = [frame.y(v) for v in values]
        kept = oracles.m4_indices([math.floor(x) for x in px], values)
        assert _line_points(svg, color) == [f"{px[i]:.2f},{py[i]:.2f}" for i in kept]


# The longest line that keeps every point, with values that jump about.
_ZIGZAG = [float((i * 7919) % 101) for i in range(557)]


@settings(max_examples=30, deadline=None)
@given(_series_pair(557))
@example((_ZIGZAG, _ZIGZAG[::-1]))
def test_timeseries_of_up_to_557_points_keeps_every_point(pair):
    # The plot is 556 px wide, so consecutive points are at least 1 px apart.
    observed, predicted = pair
    svg = timeseries_svg(observed, predicted, "overlay")
    frame = _timeseries_frame(observed, predicted)
    for values, color in ((observed, OBSERVED_COLOR), (predicted, PREDICTED_COLOR)):
        assert _line_points(svg, color) == [f"{frame.x(i):.2f},{frame.y(v):.2f}" for i, v in enumerate(values)]


@st.composite
def _edge_scatter_points(draw):
    """Points in a frame fixed by corners at 0 and 10, most of them at the
    data value that maps to a pixel in a 4 x 4 block, on a cell edge (to
    within an ulp) or just either side of one or inside the cell, and
    the rest anywhere in the frame."""
    lo, hi = _pad_range(0.0, 10.0)
    frame = _Frame(lo, hi, lo, hi)
    to_x = lambda p: lo + (p - frame.left) / (frame.right - frame.left) * (hi - lo)
    to_y = lambda p: lo + (frame.bottom - p) / (frame.bottom - frame.top) * (hi - lo)
    offsets = st.sampled_from([0.0, 1e-9, -1e-9, 0.3, 0.5, 0.7, -0.3])
    near = lambda to, first: st.builds(lambda p, d: to(p + d), st.integers(first, first + 3), offsets)
    xs = draw(st.lists(near(to_x, 300) | st.floats(0.0, 10.0), min_size=1, max_size=300))
    ys = draw(st.lists(near(to_y, 200) | st.floats(0.0, 10.0), min_size=len(xs), max_size=len(xs)))
    return [0.0, 10.0, *xs], [0.0, 10.0, *ys]


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    _edge_scatter_points(),
    st.builds(lambda n, v: ([v] * n, [v] * n), st.integers(1, 50), st.floats(-1e6, 1e6)),  # one cell
))
def test_scatter_marks_match_the_float_key_form(points):
    xs, ys = points
    lo, hi = _pad_range(min(xs + ys), max(xs + ys))
    frame = _Frame(lo, hi, lo, hi)
    marks = [line for line in scatter_svg(xs, ys, "scatter").splitlines() if line.startswith("<circle")]
    px, py = frame.x(np.asarray(xs)), frame.y(np.asarray(ys))
    assert marks == oracles.scatter_marks(px, py, OBSERVED_COLOR, HEIGHT)


def _scatter_points(n, seed):
    """n points, most in clusters about 13 px wide around the integers 0 to
    6 at steps of about 0.3 px, so that cells often hold several points
    and points often sit near a cell edge."""
    rng = random.Random(seed)
    draw = lambda: rng.randint(0, 6) + rng.randint(0, 40) * 0.004 if rng.random() < 0.8 else rng.uniform(0.0, 7.0)
    return [draw() for _ in range(n)], [draw() for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(st.builds(_scatter_points, st.integers(1, 400), st.integers(0, 2**32 - 1)))
def test_scatter_draws_one_mark_per_occupied_pixel_cell(points):
    xs, ys = points
    svg = scatter_svg(xs, ys, "scatter")
    lo, hi = _pad_range(min(xs + ys), max(xs + ys))
    frame = _Frame(lo, hi, lo, hi)
    px = [frame.x(v) for v in xs]
    py = [frame.y(v) for v in ys]
    cells = oracles.pixel_cells(px, py)
    marks = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)" r="3" fill="#1f6fb4" fill-opacity="([^"]+)"/>', svg)
    assert len(marks) == len(cells)
    for (cx, cy, opacity), (first, count) in zip(marks, cells):
        assert (cx, cy) == (f"{px[first]:.2f}", f"{py[first]:.2f}")
        # count coincident marks at 0.75 composite to 1 - 0.25**count.
        assert float(opacity) == pytest.approx(1.0 - 0.25**count, abs=1e-6)
        if count == 1:
            assert opacity == "0.75"
