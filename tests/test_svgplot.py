"""The whole-array cell map of ``Figure.render`` against the per-cell loop
it replaced, byte for byte."""
import numpy as np
import pytest

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


def reference_cell_rects(self, px, py, xc, yc, vals):
    """The scalar loop: two px and two py calls and one colour per cell."""
    finite = vals[np.isfinite(vals)]
    vmin = float(finite.min()) if finite.size else 0.0
    vmax = float(finite.max()) if finite.size else 1.0
    span = (vmax - vmin) or 1.0
    xe, ye = self._edges(xc), self._edges(yc)
    out = []
    for i in range(yc.size):
        for j in range(xc.size):
            v = vals[i, j]
            if not np.isfinite(v):
                continue
            cx0, cx1 = px(xe[j]), px(xe[j + 1])
            cy0, cy1 = py(ye[i]), py(ye[i + 1])
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
    # a single centre gives no cell width: render raises IndexError, as before
    "1 x N": (np.linspace(0.2, 1.4, 9), np.array([0.5]), SMOOTH[:1], {}),
    "N x 1": (np.array([0.5]), np.linspace(-0.1, 1.0, 7), SMOOTH[:, :1], {}),
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
    if case in ("1 x N", "N x 1"):
        assert rendered == "IndexError"
    else:
        assert n_cell_rects(rendered) == np.isfinite(values).sum()


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
