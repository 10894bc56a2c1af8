"""The whole-array cell map, lines, fills and markers of ``Figure.render``
against the per-cell and per-point loops they replaced, byte for byte."""
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainqfi
from chainqfi import svgplot
from chainqfi.cli import main
from chainqfi.svgplot import Figure, _fmt

VIRIDIS = (
    (0.267, 0.005, 0.329),
    (0.270, 0.185, 0.475),
    (0.230, 0.322, 0.546),
    (0.173, 0.449, 0.558),
    (0.128, 0.567, 0.551),
    (0.158, 0.684, 0.502),
    (0.369, 0.789, 0.383),
    (0.678, 0.864, 0.190),
    (0.993, 0.906, 0.144),
)


def reference_colormap(v: float) -> str:
    v = min(max(v, 0.0), 1.0)
    pos = v * (len(VIRIDIS) - 1)
    i = min(int(pos), len(VIRIDIS) - 2)
    f = pos - i
    r, g, b = (
        (1 - f) * VIRIDIS[i][k] + f * VIRIDIS[i + 1][k] for k in range(3)
    )
    return f"#{int(255 * r):02x}{int(255 * g):02x}{int(255 * b):02x}"


def reference_edges(centers, log):
    """Cell edges in axis units (log10 of the value on a log axis), one at a
    time: halfway between neighbouring centres, the outer two mirrored."""
    t = [math.log10(c) if log else float(c) for c in centers]
    mids = [0.5 * (a + b) for a, b in zip(t, t[1:])]
    return [t[0] - (mids[0] - t[0]), *mids, t[-1] + (t[-1] - mids[-1])]


def reference_cell_rects(self, px, py, xc, yc, vals):
    """The scalar loop: two px and two py calls and one colour per cell."""
    finite = vals[np.isfinite(vals)]
    vmin = float(finite.min()) if finite.size else 0.0
    vmax = float(finite.max()) if finite.size else 1.0
    span = (vmax - vmin) or 1.0
    xe, ye = reference_edges(xc, self.xlog), reference_edges(yc, self.ylog)
    out = []
    for i in range(yc.size):
        for j in range(xc.size):
            v = vals[i, j]
            if not np.isfinite(v):
                continue
            cx0, cx1 = px.at(xe[j]), px.at(xe[j + 1])
            cy0, cy1 = py.at(ye[i]), py.at(ye[i + 1])
            out.append(
                f'<rect x="{_fmt(min(cx0, cx1))}" y="{_fmt(min(cy0, cy1))}" '
                f'width="{_fmt(abs(cx1 - cx0))}" height="{_fmt(abs(cy1 - cy0))}" '
                f'fill="{reference_colormap((v - vmin) / span)}"/>'
            )
    return out


def outcome(fig, path):
    """The rendered bytes, or the name of the exception render raised."""
    try:
        fig.render(path)
    except Exception as exc:
        return type(exc).__name__
    return path.read_bytes()


def assert_same_render(fig, tmp_path, monkeypatch):
    new = outcome(fig, tmp_path / "new.svg")
    with monkeypatch.context() as m:
        m.setattr(Figure, "_cell_rects", reference_cell_rects)
        old = outcome(fig, tmp_path / "old.svg")
    assert new == old
    return new


def n_cell_rects(svg: bytes) -> int:
    """<rect> lines other than the background, the frame and legend swatches."""
    return sum(
        line.startswith(b'<rect x="') and b'fill="none"' not in line
        and b'width="12" height="9"' not in line
        for line in svg.splitlines()
    )


def cell_map(x, y, values, **figure_kw):
    fig = Figure(title="map", xlabel="x", ylabel="y", **figure_kw)
    fig.cells(x, y, values, label="S(Q,E)")
    return fig


RNG = np.random.default_rng(11)
SMOOTH = RNG.normal(size=(7, 9))
WITH_NAN = SMOOTH.copy()
WITH_NAN[0, 0] = WITH_NAN[3, 4] = WITH_NAN[6, 8] = np.nan
WITH_NAN[2, 1], WITH_NAN[5, 7] = np.inf, -np.inf

CASES = {
    "nan and inf cells": (np.linspace(0.2, 1.4, 9), np.linspace(-0.1, 1.0, 7), WITH_NAN, {}),
    "all cells nan": (np.linspace(0.2, 1.4, 9), np.linspace(-0.1, 1.0, 7),
                      np.full((7, 9), np.nan), {}),
    "xlog": (np.linspace(1.0, 9.0, 9), np.linspace(-0.1, 1.0, 7), SMOOTH, {"xlog": True}),
    "ylog": (np.linspace(0.2, 1.4, 9), np.linspace(5.0, 30.0, 7), SMOOTH, {"ylog": True}),
    "xlog and ylog": (np.geomspace(10.0, 40.0, 9), np.geomspace(5.0, 9.0, 7), SMOOTH,
                      {"xlog": True, "ylog": True}),
    "descending x": (np.linspace(1.4, 0.2, 9), np.linspace(-0.1, 1.0, 7), SMOOTH, {}),
    "descending y": (np.linspace(0.2, 1.4, 9), np.linspace(1.0, -0.1, 7), SMOOTH, {}),
    "decades on a log axis": (np.array([1.0, 10.0, 100.0]), np.linspace(-0.1, 1.0, 7),
                              SMOOTH[:, :3], {"xlog": True}),
    "2 x N": (np.linspace(0.2, 1.4, 9), np.array([0.5, 0.6]), SMOOTH[:2], {}),
    "constant map": (np.linspace(0.2, 1.4, 9), np.linspace(-0.1, 1.0, 7),
                     np.full((7, 9), 3.25), {}),
    "values beyond 0..1 after scaling": (np.linspace(0.2, 1.4, 9), np.linspace(-0.1, 1.0, 7),
                                         1e6 * SMOOTH - 7.0, {}),
}


@pytest.mark.parametrize("case", list(CASES))
def test_cell_map_matches_the_scalar_loop(case, tmp_path, monkeypatch):
    x, y, values, figure_kw = CASES[case]
    rendered = assert_same_render(cell_map(x, y, values, **figure_kw), tmp_path, monkeypatch)
    assert n_cell_rects(rendered) == np.isfinite(values).sum()


@pytest.mark.parametrize(
    "x, y, axis",
    [
        (np.linspace(0.2, 1.4, 9), np.array([0.5]), "y"),
        (np.array([0.5]), np.linspace(-0.1, 1.0, 7), "x"),
    ],
    ids=["1 x N", "N x 1"],
)
def test_cells_refuse_a_single_centre(x, y, axis):
    with pytest.raises(ValueError, match=f"^a cell map needs at least 2 {axis} centres, got 1$"):
        Figure().cells(x, y, np.ones((y.size, x.size)))


@pytest.mark.parametrize(
    "figure_kw, x, y, message",
    [
        ({"xlog": True}, [0.0, 1.0, 2.0], [1.0, 2.0], "x centres must be finite and > 0 "
         "on a log axis, got 0.0"),
        ({"ylog": True}, [1.0, 2.0, 3.0], [2.0, -0.5], "y centres must be finite and > 0 "
         "on a log axis, got -0.5"),
        ({}, [0.2, math.nan, 0.9], [1.0, 2.0], "x centres must be finite, got nan"),
        ({}, [0.2, 0.5, 0.9], [1.0, -math.inf], "y centres must be finite, got -inf"),
        ({"xlog": True}, [1.0, math.inf, 9.0], [1.0, 2.0], "x centres must be finite and > 0 "
         "on a log axis, got inf"),
    ],
    ids=["zero on a log x", "negative on a log y", "nan x", "-inf y", "inf on a log x"],
)
def test_cells_refuse_a_centre_the_axis_cannot_place(figure_kw, x, y, message):
    """The refusal comes at ``cells``, naming the axis and the value, not
    at ``render`` as a math domain error or as ``nan`` coordinates."""
    fig = Figure(**figure_kw)
    with pytest.raises(ValueError) as exc:
        fig.cells(x, y, np.ones((len(y), len(x))))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "figure_kw, draw, message",
    [
        ({"xlog": True}, lambda f: f.vline(0.0), "vline x must be finite and > 0 on a log "
         "axis, got 0.0"),
        ({}, lambda f: f.vline(math.nan), "vline x must be finite, got nan"),
        ({}, lambda f: f.hline(math.inf), "hline y must be finite, got inf"),
        ({"ylog": True}, lambda f: f.hline(-1.0), "hline y must be finite and > 0 on a log "
         "axis, got -1.0"),
        ({}, lambda f: f.annotate("a", math.nan, 1.0), "annotate x must be finite, got nan"),
        ({"ylog": True}, lambda f: f.annotate("a", 1.0, 0.0), "annotate y must be finite and "
         "> 0 on a log axis, got 0.0"),
        ({"xlog": True}, lambda f: f.annotate("a", 1.0, -math.inf), "annotate y must be "
         "finite, got -inf"),
    ],
    ids=["vline 0 on a log x", "vline nan", "hline inf", "hline -1 on a log y",
         "annotate nan x", "annotate 0 on a log y", "annotate -inf y"],
)
def test_single_value_elements_refuse_a_value_the_axis_cannot_place(figure_kw, draw, message):
    """The refusal comes when the element is drawn, by the rule of the cell
    centres, not at ``render`` as a math domain error or as ``nan`` in the SVG."""
    fig = Figure(**figure_kw)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        draw(fig)
    assert fig._elements == []


@pytest.mark.parametrize("log", [False, True], ids=["linear", "log"])
def test_single_value_elements_accept_what_the_axis_can_place(log):
    fig = Figure(xlog=log, ylog=log)
    for v in [5e-324, 1.0, 1e308] + ([] if log else [0.0, -0.0, -1e308]):
        fig.vline(v)
        fig.hline(v)
        fig.annotate("a", v, v)
    assert len(fig._elements) == (9 if log else 18)


@pytest.mark.parametrize(
    "draw, message",
    [
        (lambda f: f.hline(-1e308), "hline y = -1e+308 lies too far outside the axis: "
         "its pixel is inf"),
        (lambda f: f.vline(1e308), "vline x = 1e+308 lies too far outside the axis: "
         "its pixel is inf"),
        (lambda f: f.annotate("a", -1e308, 0.5), "annotate x = -1e+308 lies too far outside "
         "the axis: its pixel is -inf"),
        (lambda f: f.annotate("a", 0.5, 1e308), "annotate y = 1e+308 lies too far outside "
         "the axis: its pixel is -inf"),
    ],
    ids=["hline", "vline", "annotate x", "annotate y"],
)
def test_render_refuses_a_single_value_with_no_finite_pixel(tmp_path, draw, message):
    """A finite value far outside the drawn data overflows its pixel; render
    refuses it by name, without an overflow warning, and writes no file."""
    fig = Figure()
    fig.line([0.0, 1.0], [0.0, 1.0])
    draw(fig)
    path = tmp_path / "f.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fig.render(path)
    assert not path.exists()


def test_render_places_the_largest_float_on_a_log_axis(tmp_path):
    fig = Figure(xlog=True, ylog=True)
    fig.line([1.0, 10.0], [1.0, 10.0])
    fig.vline(1e308)
    fig.hline(1e308)
    fig.annotate("a", 1e308, 1e308)
    fig.render(tmp_path / "f.svg")
    assert not re.search(r"inf|nan", (tmp_path / "f.svg").read_text())


def test_cells_accept_descending_log_centres_and_nonfinite_values(tmp_path):
    fig = Figure(xlog=True, ylog=True)
    fig.cells([100.0, 10.0, 1.0], [9.0, 3.0], [[1.0, np.nan, 3.0], [np.inf, 5.0, 6.0]])
    fig.render(tmp_path / "map.svg")
    svg = (tmp_path / "map.svg").read_bytes()
    assert b"nan" not in svg
    assert n_cell_rects(svg) == 4


@pytest.mark.parametrize("log", ["xlog", "ylog"])
def test_log_axis_edges_are_geometric_midpoints(tmp_path, log):
    """Centres 1, 10 and 100 on a log axis have their edges at 10**-0.5,
    10**0.5, 10**1.5 and 10**2.5; a linear extrapolation put the first at
    -4.5, whose log10 does not exist."""
    decades, other = np.array([1.0, 10.0, 100.0]), np.array([0.0, 1.0])
    x, y = (decades, other) if log == "xlog" else (other, decades)
    fig = Figure(**{log: True})
    fig.cells(x, y, np.arange(6.0).reshape(y.size, x.size))
    fig.render(tmp_path / "map.svg")
    axis = fig._scales()[log == "ylog"]
    pixels = [axis.at(t) for t in (-0.5, 0.5, 1.5, 2.5)]
    expected = {(_fmt(min(a, b)), _fmt(abs(b - a))) for a, b in zip(pixels, pixels[1:])}
    rects = re.findall(r'<rect x="([^"]+)" y="([^"]+)" width="([^"]+)" height="([^"]+)" fill="#',
                       (tmp_path / "map.svg").read_text())
    k = 0 if log == "xlog" else 1
    assert len(rects) == 6
    assert {(r[k], r[k + 2]) for r in rects} == expected


def test_cell_map_under_other_elements(tmp_path, monkeypatch):
    fig = cell_map(np.linspace(0.2, 1.4, 9), np.linspace(-0.1, 1.0, 7), WITH_NAN)
    fig.line([0.2, 1.4], [0.0, 0.9], color="#d62728", label="bound")
    fig.cells(np.linspace(0.3, 0.9, 4), np.linspace(0.1, 0.4, 3), SMOOTH[:3, :4])
    fig.annotate("peak", 0.7, 0.5)
    assert isinstance(assert_same_render(fig, tmp_path, monkeypatch), bytes)


def test_seed7_spinon_overlay(tmp_path, monkeypatch):
    data, out = tmp_path / "data", tmp_path / "spinon"
    argv = ["synth", "--temps", "0.2,0.5", "--seed", "7", "--noise", "1.0",
            "--elastic-amp", "100", "--out", str(data), "--deterministic"]
    assert main(argv) == 0
    figures = []
    render = Figure.render

    def keep(self, path, timestamp=None):
        figures.append(self)
        return render(self, path, timestamp)

    with monkeypatch.context() as m:
        m.setattr(svgplot.Figure, "render", keep)
        argv = ["spinon", "--data", str(data / "manifest_T0p2.json"), "--out", str(out),
                "--deterministic"]
        assert main(argv) == 0
    (fig,) = figures
    written = (out / "spinon_overlay.svg").read_bytes()
    assert assert_same_render(fig, tmp_path, monkeypatch) == written
    (values,) = [el[3] for el in fig._elements if el[0] == "cells"]
    assert n_cell_rects(written) == np.isfinite(values).sum() > 5000


def reference_marks(self, el, pxy):
    """The per-point loop: one px and one py call and two _fmt per point."""
    px, py = self._scales()[:2]
    out = []
    kind = el[0]
    if kind == "fill":
        _, x, y, color, opacity, label = el
        if x.size >= 2:
            pts = [f"{_fmt(px(x[0]))},{_fmt(py(0.0 if not self.ylog else min(y[y>0], default=1e-30)))}"]
            pts += [f"{_fmt(px(xi))},{_fmt(py(yi))}" for xi, yi in zip(x, y)]
            pts.append(f"{_fmt(px(x[-1]))},{_fmt(py(0.0 if not self.ylog else min(y[y>0], default=1e-30)))}")
            out.append(
                f'<polygon points="{" ".join(pts)}" fill="{color}" '
                f'fill-opacity="{opacity}" stroke="none"/>'
            )
    elif kind == "line":
        _, x, y, color, width, dash, label = el
        if x.size >= 2:
            pts = " ".join(
                f"{_fmt(px(xi))},{_fmt(py(yi))}" for xi, yi in zip(x, y)
            )
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="{width}"{dash_attr}/>'
            )
    elif kind == "points":
        _, x, y, color, radius, label = el
        for xi, yi in zip(x, y):
            out.append(
                f'<circle cx="{_fmt(px(xi))}" cy="{_fmt(py(yi))}" '
                f'r="{radius}" fill="{color}"/>'
            )
    return out


def assert_same_marks(fig, tmp_path, monkeypatch):
    """Render with the array mapping of lines, fills and markers, then with
    the per-point loop; the files (or the exception raised) must be equal."""
    new = outcome(fig, tmp_path / "new.svg")
    with monkeypatch.context() as m:
        m.setattr(Figure, "_marks", reference_marks)
        old = outcome(fig, tmp_path / "old.svg")
    assert new == old
    return new


def drawn(x, y, **figure_kw):
    """A figure with one line, one fill and one set of markers on (x, y)."""
    fig = Figure(title="marks", xlabel="x", ylabel="y", **figure_kw)
    fig.fill_under(x, y, label="area")
    fig.line(x, y, dash="5 3", label="curve")
    fig.points(x, y, radius=3.0, label="data")
    return fig


def append_raw(fig, x, y):
    """Elements added past ``_track``, as if the axis turned log after drawing:
    their values can be <= 0 on a log axis."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    fig._elements += [
        ("fill", x, y, "#17becf", 0.45, None),
        ("line", x, y, "#d62728", 1.5, None, "raw"),
        ("points", x, y, "#000000", 2.5, None),
    ]
    return fig


WAVY_X = np.linspace(0.05, 3.0, 97)
WAVY_Y = 1.5 + np.sin(3 * WAVY_X) + 1e-3 * RNG.normal(size=WAVY_X.size)
WITH_NAN_Y = WAVY_Y.copy()
WITH_NAN_Y[[0, 10, 40]] = np.nan
AXES = {"linear": {}, "xlog": {"xlog": True}, "ylog": {"ylog": True},
        "xlog and ylog": {"xlog": True, "ylog": True}}
MARK_CASES = {
    "smooth": (WAVY_X, WAVY_Y),
    "nan values": (WAVY_X, WITH_NAN_Y),
    "descending x": (WAVY_X[::-1], WAVY_Y),
    "one point": (WAVY_X[:1], WAVY_Y[:1]),
    "two points": (WAVY_X[:2], WAVY_Y[:2]),
    "integer arrays": (np.arange(1, 12), np.arange(1, 12) ** 2),
    "negative values": (WAVY_X - 1.0, WAVY_Y - 1.5),
    "wide range": (np.geomspace(1e-12, 1e12, 61), np.geomspace(1e300, 1e-300, 61)),
}


@pytest.mark.parametrize("axes", list(AXES))
@pytest.mark.parametrize("case", list(MARK_CASES))
def test_marks_match_the_per_point_loop(case, axes, tmp_path, monkeypatch):
    x, y = MARK_CASES[case]
    rendered = assert_same_marks(drawn(x, y, **AXES[axes]), tmp_path, monkeypatch)
    assert isinstance(rendered, bytes)


def test_one_point_line_and_fill_are_skipped(tmp_path, monkeypatch):
    rendered = assert_same_marks(drawn([2.0], [3.0]), tmp_path, monkeypatch)
    assert b"<polyline" not in rendered and b"<polygon" not in rendered
    assert rendered.count(b"<circle") == 1


def test_a_render_that_raises_writes_no_file(tmp_path):
    """The whole SVG is built before the writer opens the file."""
    fig = append_raw(Figure(xlog=True), [1.0, 0.0, 2.0], [2.0, 4.0, 6.0])
    with pytest.raises(ValueError):
        fig.render(tmp_path / "fig.svg")
    assert not (tmp_path / "fig.svg").exists()


@pytest.mark.parametrize("axes", ["xlog", "ylog"])
def test_log_axis_with_a_value_at_or_below_zero_raises(axes, tmp_path, monkeypatch):
    fig = drawn(np.linspace(1.0, 4.0, 5), np.linspace(2.0, 8.0, 5), **AXES[axes])
    append_raw(fig, [0.5, 1.0, 2.0], [2.0, 4.0, 6.0])
    assert isinstance(assert_same_marks(fig, tmp_path, monkeypatch), bytes)
    bad = [1.0, 0.0, 2.0] if axes == "xlog" else [1.0, -1.0, 2.0]
    append_raw(fig, bad, [2.0, -0.0, 6.0] if axes == "ylog" else [2.0, 4.0, 6.0])
    assert assert_same_marks(fig, tmp_path, monkeypatch) == "ValueError"
    # a one-point line or fill is never mapped; its marker is
    fig = drawn(np.linspace(1.0, 4.0, 5), np.linspace(2.0, 8.0, 5), **AXES[axes])
    fig._elements += [("line", np.array([0.0]), np.array([-1.0]), "#000000", 1.5, None, None),
                      ("fill", np.array([0.0]), np.array([-1.0]), "#000000", 0.5, None)]
    assert isinstance(assert_same_marks(fig, tmp_path, monkeypatch), bytes)
    fig._elements.append(("points", np.array([0.0]), np.array([-1.0]), "#000000", 2.5, None))
    assert assert_same_marks(fig, tmp_path, monkeypatch) == "ValueError"


@pytest.mark.parametrize("value", [1e300, -1e20, 5e15])
def test_flat_series_far_from_zero_renders(value, tmp_path, monkeypatch):
    # +-0.5 is below the float spacing at these values, so it cannot widen
    # the flat y range on its own
    rendered = assert_same_marks(drawn([1.0, 2.0], [value, value]), tmp_path, monkeypatch)
    assert isinstance(rendered, bytes) and b"nan" not in rendered


def test_nan_and_inf_past_the_tracker(tmp_path, monkeypatch):
    fig = drawn(WAVY_X, WAVY_Y, xlog=True)
    append_raw(fig, [0.5, np.nan, np.inf, 2.0], [1.0, 2.0, np.nan, -np.inf])
    assert b"nan" in assert_same_marks(fig, tmp_path, monkeypatch)


def test_marks_under_cells_and_single_value_elements(tmp_path, monkeypatch):
    fig = cell_map(np.linspace(0.2, 1.4, 9), np.linspace(-0.1, 1.0, 7), WITH_NAN)
    fig.fill_under(np.linspace(0.2, 1.4, 30), np.linspace(0.0, 0.9, 30) ** 2)
    fig.line([0.2, 1.4], [0.0, 0.9], color="#d62728", label="bound")
    fig.vline(0.7, label="peak")
    fig.hline(0.3)
    fig.annotate("here", 0.5, 0.5)
    assert isinstance(assert_same_marks(fig, tmp_path, monkeypatch), bytes)


FLOATS = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(FLOATS, FLOATS), min_size=0, max_size=12),
    st.sampled_from(list(AXES)),
)
def test_marks_match_on_drawn_points(tmp_path_factory, pairs, axes):
    x = np.array([p[0] for p in pairs], dtype=float)
    y = np.array([p[1] for p in pairs], dtype=float)
    tmp_path = tmp_path_factory.mktemp("marks")
    # no drawable point on a log axis leaves the fallback range [1, 10], and
    # such a figure renders in both
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_marks(drawn(x, y, **AXES[axes]), tmp_path, monkeypatch)


def test_seed7_command_figures(tmp_path, monkeypatch):
    """Every figure the README commands draw, through both mappings."""
    data = tmp_path / "data"
    assert main(["synth", "--temps", "0.2,0.5", "--seed", "7", "--noise", "1.0",
                 "--elastic-amp", "100", "--out", str(data), "--deterministic"]) == 0
    runs = [
        ["fit-susceptibility", str(data / "chi.csv"), "--freeze", "g=2.1"],
        ["witness", str(data / "chi.csv"), "--g", "2.1"],
        ["qfi", "--model", "--policy", "absolute-value", "--temps", "0.04,0.5,3,6.7"],
        ["qfi", "--data", str(data / "manifest_T0p2.json"), str(data / "manifest_T0p5.json")],
        ["spinon", "--data", str(data / "manifest_T0p2.json"), "--j-kelvin", "3.1"],
    ]
    figures = []
    render = Figure.render

    def keep(self, path, timestamp=None):
        figures.append((self, path))
        return render(self, path, timestamp)

    with monkeypatch.context() as m:
        m.setattr(svgplot.Figure, "render", keep)
        for k, argv in enumerate(runs):
            assert main([*argv, "--out", str(tmp_path / f"out{k}"), "--deterministic"]) == 0
    assert len(figures) >= len(runs)
    for fig, path in figures:
        assert assert_same_marks(fig, tmp_path, monkeypatch) == Path(path).read_bytes()


def render_in_subprocess(tmp_path, figure_code: str) -> bytes:
    """Render the figure built by ``figure_code`` (bound to ``f``) in a fresh
    process, so that a hang fails the test instead of stalling the suite."""
    src = str(Path(chainqfi.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = tmp_path / "fig.svg"
    script = f"from chainqfi.svgplot import Figure\n{figure_code}\nf.render({str(path)!r})\n"
    try:
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail(f"render did not return within 60 s: {figure_code}")
    assert done.returncode == 0, done.stderr
    return path.read_bytes()


@pytest.mark.parametrize("axis", ["x", "y"])
def test_series_flat_to_rounding_renders(tmp_path, axis):
    flat = "[1.0, 1.0000000000000002]"
    xy = f"[0.0, 1.0], {flat}" if axis == "y" else f"{flat}, [0.0, 1.0]"
    svg = render_in_subprocess(tmp_path, f"f = Figure()\nf.line({xy})")
    assert svg.count(b"<polyline") == 1


@pytest.mark.parametrize("axes", ["xlog", "ylog"])
def test_log_axis_with_nothing_drawable_renders(tmp_path, axes):
    xy = "[-1.0, 0.0], [1.0, 2.0]" if axes == "xlog" else "[1.0, 2.0], [-1.0, 0.0]"
    svg = render_in_subprocess(tmp_path, f"f = Figure({axes}=True)\nf.line({xy})")
    assert b"<polyline" not in svg and svg.endswith(b"</svg>\n")


@pytest.mark.parametrize(
    "lo, hi", [(-3e8, -3e8 + 1e-5), (1.0, 1.0 + 1e-13), (0.0, 0.0), (2.0, 1.0)]
)
def test_nice_ticks_on_a_flat_range_is_one_tick(lo, hi):
    # a range one ulp wide is tested above, in a subprocess, where a hang
    # fails the test instead of stalling the suite
    assert svgplot.nice_ticks(lo, hi) == [lo]


@pytest.mark.parametrize("target", [1, 2, 4, 5, 9])
def test_nice_ticks_count_is_bounded(target):
    for lo, hi in [(0.0, 1.0), (-7.3, 12.1), (1e-9, 3e-9), (0.99, 1.01)]:
        ticks = svgplot.nice_ticks(lo, hi, target)
        assert 1 <= len(ticks) <= max(target, 2) + 2
        assert ticks == sorted(ticks) and lo <= ticks[0] and ticks[-1] <= hi + 1e-6 * (hi - lo)


# every finite float, subnormals and the float maximum included
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def series(draw):
    """Up to 10 finite values; half the time all within one ulp of a base."""
    n = draw(st.integers(0, 10))
    if draw(st.booleans()):
        base = draw(FINITE)
        return [draw(st.sampled_from((base, math.nextafter(base, math.inf))))
                for _ in range(n)]
    return draw(st.lists(FINITE, min_size=n, max_size=n))


def render_hung(signum, frame):
    raise TimeoutError("render did not return within 3 s")


@settings(max_examples=200, deadline=timedelta(seconds=1), derandomize=True)
@given(series(), series(), st.sampled_from(list(AXES)))
def test_render_returns_for_any_finite_series(tmp_path_factory, xs, ys, axes):
    n = min(len(xs), len(ys))
    fig = drawn(xs[:n], ys[:n], **AXES[axes])
    path = tmp_path_factory.mktemp("render") / "fig.svg"
    # the alarm turns a hang into a failure; the deadline catches a slow render
    previous = signal.signal(signal.SIGALRM, render_hung)
    signal.setitimer(signal.ITIMER_REAL, 3.0)
    try:
        fig.render(path)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    svg = path.read_bytes()
    assert svg.endswith(b"</svg>\n")
    assert b"nan" not in svg and b"inf" not in svg


@pytest.mark.parametrize(
    "axes, x, y, labels",
    [
        ({"xlog": True}, 1.7e308, 1.0, [b">1e+308<", b">3.16228e+308<"]),
        ({"ylog": True}, 1.0, 1.7e308, [b">1e+308<", b">3.16228e+308<"]),
        ({"xlog": True}, sys.float_info.max, 1.0, [b">1e+308<", b">3.16228e+308<"]),
    ],
    ids=["x 1.7e308", "y 1.7e308", "x float max"],
)
def test_narrow_log_axis_at_the_float_maximum_renders(tmp_path, axes, x, y, labels):
    # the tick at 10**308.5 is above the float maximum; its label is written
    # as mantissa and power of ten instead of overflowing
    fig = Figure(**axes)
    fig.points([x], [y])
    fig.render(tmp_path / "fig.svg")
    svg = (tmp_path / "fig.svg").read_bytes()
    assert all(label in svg for label in labels) and svg.endswith(b"</svg>\n")


@pytest.mark.parametrize("v", [-12.3, -0.5, 0.0, 0.2, 1.4, 7.6, 300.2, 308.2])
def test_power_of_ten_label_where_it_is_finite(v):
    assert svgplot._fmt_pow10(v) == _fmt(10**v)


@pytest.mark.parametrize(
    "ys", [[-9.12e307, 9.12e307], [-sys.float_info.max, sys.float_info.max]],
    ids=["9.12e307", "float max"],
)
def test_linear_axis_wider_than_the_float_maximum(tmp_path, ys):
    # the data span more than the float maximum, the padded range too
    fig = Figure()
    fig.points([1.0, 2.0], ys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fig.render(tmp_path / "fig.svg")
    svg = (tmp_path / "fig.svg").read_text()
    assert "nan" not in svg and "inf" not in svg
    low, high = (float(cy) for cy in re.findall(r'cy="([^"]+)"', svg))
    assert Figure.margin_top <= high < low <= Figure.height - Figure.margin_bottom
    labels = re.findall(r'text-anchor="end">([^<]+)<', svg)
    assert "0" in labels and all(math.isfinite(float(v)) for v in labels)


# the ends and the middle of the float range, signed zeros, subnormals, and
# the non-finite values that the tracker drops
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, sys.float_info.max, math.nan,
     math.inf, -math.inf]
) | st.floats(min_value=-1e6, max_value=1e6)


@st.composite
def figure_ops(draw):
    """(kind, x, y, values) of up to four elements: lines, points, fills and
    cell maps; a cell map's values are one per (y, x) centre pair."""
    ops = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["line", "points", "fill_under", "cells"]))
        n = draw(st.integers(0 if kind != "cells" else 2, 6))
        x = draw(st.lists(EDGE_FLOATS, min_size=n, max_size=n))
        m = n if kind != "cells" else draw(st.integers(2, 4))
        y = draw(st.lists(EDGE_FLOATS, min_size=m, max_size=m))
        values = draw(st.lists(EDGE_FLOATS, min_size=n * m, max_size=n * m))
        ops.append((kind, x, y, values))
    return ops


def built(ops, **figure_kw):
    fig = Figure(**figure_kw)
    for kind, x, y, values in ops:
        if kind == "cells":
            try:
                fig.cells(x, y, np.reshape(values, (len(y), len(x))))
            except ValueError:  # a centre that is not finite, or <= 0 on a log axis
                pass
        else:
            getattr(fig, kind)(x, y)
    return fig


@settings(max_examples=300, deadline=None, derandomize=True)
@given(figure_ops(), st.sampled_from(list(AXES)))
def test_running_extent_renders_as_min_and_max_of_every_point(tmp_path_factory, ops, axes):
    """The figure keeps [min, max] per axis as it goes; its render must equal
    that of the rule it replaced: np.min and np.max over every tracked point."""
    tmp_path = tmp_path_factory.mktemp("extent")
    kept = ([], [])
    track = Figure._track

    def keep_points(self, x, y):
        x, y = track(self, x, y)
        kept[0].append(x)
        kept[1].append(y)
        return x, y

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        new = built(ops, **AXES[axes])
        with pytest.MonkeyPatch.context() as m:
            m.setattr(Figure, "_track", keep_points)
            old = built(ops, **AXES[axes])
        for extent, parts in ((old._xextent, kept[0]), (old._yextent, kept[1])):
            v = np.concatenate([np.empty(0), *parts])
            extent[:] = [float(np.min(v)), float(np.max(v))] if v.size else []
        assert outcome(new, tmp_path / "new.svg") == outcome(old, tmp_path / "old.svg")


def test_figure_holds_no_per_point_floats():
    """qfi --model on 32 temperatures draws a fill and a line of 241 points
    each: the figure holds the drawn arrays, and no Python float per point."""
    grid = np.linspace(0.0, 3.0, 241)
    curves = [np.sin(grid + k) for k in range(32)]
    fig = Figure()
    tracemalloc.start()
    try:
        for curve in curves:
            fig.fill_under(grid, curve)
            fig.line(grid, curve)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    array_bytes = 32 * 482 * 2 * 8
    assert held < 1.2 * array_bytes
