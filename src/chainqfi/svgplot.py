"""Minimal deterministic SVG plotting: axes, polylines, filled areas,
scatter markers, and cell maps. No randomness: ``render``'s bytes depend
only on the data and a timestamp, and ``core._write_lines`` writes them.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import _write_lines

__all__ = ["Figure"]

# Ranges are halved before they are subtracted or divided, so an axis whose
# data span more than the float maximum still maps to finite pixels and
# ticks. Halving a float is exact, so every other axis keeps its bytes.
_FLOAT_MAX = sys.float_info.max


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _fmt_pow10(v: float) -> str:
    """``_fmt(10**v)``; where 10**v overflows a float, its mantissa and
    power of ten are formatted apart, in the same style."""
    try:
        return _fmt(10**v)
    except OverflowError:
        p = math.floor(v)
        return f"{_fmt(10 ** (v - p))}e+{p:d}"


def nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round tick values in [lo, hi]; a range flat to within 1e-12 of its
    magnitude gets the one tick ``lo``, since a step below the float
    spacing at the ticks would never advance ``v``."""
    if not (hi - lo > 1e-12 * max(abs(lo), abs(hi))):
        return [lo]
    raw = (hi / 2 - lo / 2) / max(target, 2) * 2
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    ticks = []
    v = math.ceil(lo / step) * step
    # step >= (hi - lo) / max(target, 2) leaves at most max(target, 2) + 1 ticks
    while v <= min(hi + 1e-9 * step, _FLOAT_MAX) and len(ticks) <= max(target, 2) + 1:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


class _Axis(NamedTuple):
    """The value -> pixel map of one axis: ``lo``..``hi`` (log10 of the value
    on a log axis) onto pixels ``a``..``b``."""

    lo: float
    hi: float
    a: int
    b: int
    log: bool

    @classmethod
    def over(cls, extent: list, log: bool, pad: float, a: int, b: int) -> "_Axis":
        """The axis over the data's ``[min, max]``, widened by ``pad`` of its
        range on each side; with no data (``extent`` empty) the range is
        [0, 1], or [1, 10] on a log axis."""
        lo, hi = extent or ((1.0, 10.0) if log else (0.0, 1.0))
        if log:
            lo, hi = math.log10(lo), math.log10(hi)
        if hi - lo < 1e-30:
            # 0.5, or more where 0.5 is below the float spacing at lo
            half = max(0.5, 1e-12 * abs(lo))
            lo, hi = lo - half, hi + half
        pad *= hi / 2 - lo / 2
        return cls(max(lo - 2 * pad, -_FLOAT_MAX), min(hi + 2 * pad, _FLOAT_MAX), a, b, log)

    def at(self, t):
        """The pixel of ``t`` in axis units (log10 of the value on a log axis)."""
        return self.a + (t / 2 - self.lo / 2) / (self.hi / 2 - self.lo / 2) * (self.b - self.a)

    def units(self, v) -> np.ndarray:
        """A value, or each value of an array, in axis units. ``math.log10``
        stays, since ``np.log10`` differs from it in the last bit for some
        inputs."""
        v = np.asarray(v, dtype=float)
        if self.log:
            v = np.fromiter(map(math.log10, v.ravel().tolist()), float, v.size).reshape(v.shape)
        return v

    def __call__(self, v):
        """The pixel of a value, or of each value of an array."""
        return self.at(self.units(v))

    def ticks(self) -> list[tuple[float, str]]:
        """(axis units, label) of each tick inside the range."""
        lo, hi = self.lo, self.hi
        if not self.log:
            return [(v, _fmt(v)) for v in nice_ticks(lo, hi)]
        ticks = []
        for p in range(math.floor(lo), math.ceil(hi) + 1):
            if lo <= p <= hi:
                ticks.append((p, f"1e{p:d}" if p not in (0, 1) else ("1" if p == 0 else "10")))
        if len(ticks) < 2:  # narrow log range: fall back to linear ticks in log space
            ticks = [(v, _fmt_pow10(v)) for v in nice_ticks(lo, hi, 4)]
        return ticks


def _unplaceable(v: np.ndarray, log: bool) -> np.ndarray:
    """Where an axis cannot place ``v``: a non-finite value, or one <= 0 on a
    log axis. The one rule of every element that draws values."""
    return ~np.isfinite(v) | (log & (v <= 0))


def _require_placeable(what: str, values, log: bool) -> None:
    """Refuse ``values`` that their axis cannot place, with a ValueError
    naming ``what`` and the first such value."""
    v = np.asarray(values, dtype=float)
    bad = _unplaceable(v, log)
    if bad.any():
        rule = "finite and > 0 on a log axis" if log else "finite"
        raise ValueError(f"{what} must be {rule}, got {v[bad][0]}")


def _edges(t: np.ndarray) -> np.ndarray:
    """The cell edges around centres ``t``: the midpoint of each neighbouring
    pair, and the two outer edges mirrored about the end centres."""
    mids = 0.5 * (t[1:] + t[:-1])
    return np.concatenate(([t[0] - (mids[0] - t[0])], mids, [t[-1] + (t[-1] - mids[-1])]))


_VIRIDIS = np.array((
    (0.267, 0.005, 0.329),
    (0.270, 0.185, 0.475),
    (0.230, 0.322, 0.546),
    (0.173, 0.449, 0.558),
    (0.128, 0.567, 0.551),
    (0.158, 0.684, 0.502),
    (0.369, 0.789, 0.383),
    (0.678, 0.864, 0.190),
    (0.993, 0.906, 0.144),
))


@dataclass
class Figure:
    """One panel with linear or log axes and a draw-order element list; the
    size and margins (pixels) are fixed."""

    width = 640
    height = 460
    margin_left = 72
    margin_right = 20
    margin_top = 36
    margin_bottom = 52

    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    xlog: bool = False
    ylog: bool = False
    _elements: list = field(default_factory=list, init=False)
    # [min, max] of the drawn x and y, empty until a point is drawn
    _xextent: list = field(default_factory=list, init=False)
    _yextent: list = field(default_factory=list, init=False)

    def _track(self, x, y):
        """The drawable points of ``x`` and ``y``: finite, and > 0 on a log
        axis; the axis extents widen to take them in."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ok = ~(_unplaceable(x, self.xlog) | _unplaceable(y, self.ylog))
        x, y = x[ok], y[ok]
        if x.size:
            for extent, v in ((self._xextent, x), (self._yextent, y)):
                lo, hi = float(v.min()), float(v.max())
                extent[:] = [min(extent[0], lo), max(extent[1], hi)] if extent else [lo, hi]
        return x, y

    def line(self, x, y, color="#d62728", dash=None, label=None):
        x, y = self._track(x, y)
        self._elements.append(("line", x, y, color, 1.5, dash, label))

    def points(self, x, y, color="#000000", radius=2.5, label=None):
        x, y = self._track(x, y)
        self._elements.append(("points", x, y, color, radius, label))

    def fill_under(self, x, y, color="#17becf", opacity=0.45, label=None):
        x, y = self._track(x, y)
        self._elements.append(("fill", x, y, color, opacity, label))

    def vline(self, x, color="#444444", label=None):
        _require_placeable("vline x", x, self.xlog)
        self._elements.append(("vline", float(x), color, "4 3", label))

    def hline(self, y):
        _require_placeable("hline y", y, self.ylog)
        self._elements.append(("hline", float(y), "#444444", "4 3"))

    def cells(self, x_centers, y_centers, values, label=None):
        """Filled-rectangle map; values normalized over their finite range.
        Each axis needs two centres, so that a cell has a width, and each
        centre must be finite, and > 0 on a log axis."""
        x = np.asarray(x_centers, dtype=float)
        y = np.asarray(y_centers, dtype=float)
        for axis, centers, log in (("x", x, self.xlog), ("y", y, self.ylog)):
            if centers.size < 2:
                raise ValueError(
                    f"a cell map needs at least 2 {axis} centres, got {centers.size}"
                )
            _require_placeable(f"{axis} centres", centers, log)
        self._track(x, np.full_like(x, y[0]))
        self._track(np.full_like(y, x[0]), y)
        self._elements.append(("cells", x, y, np.asarray(values, dtype=float), label))

    def annotate(self, text, x, y):
        _require_placeable("annotate x", x, self.xlog)
        _require_placeable("annotate y", y, self.ylog)
        self._elements.append(("annotate", str(text), float(x), float(y), "#000000"))

    # --- rendering ---

    def _scales(self) -> tuple[_Axis, _Axis]:
        """The x axis (4 % padding) and the y axis (6 %) over the drawn data."""
        return (
            _Axis.over(self._xextent, self.xlog, 0.04, self.margin_left,
                       self.width - self.margin_right),
            _Axis.over(self._yextent, self.ylog, 0.06, self.height - self.margin_bottom,
                       self.margin_top),
        )

    def _cell_rects(self, px, py, xc, yc, vals):
        """The <rect> lines of one cell row at a time, rows outer: one <rect>
        per finite cell, coloured over the finite value range. Edges lie
        halfway between centres in axis units, so geometrically on a log
        axis; each is mapped and formatted once. Only the colour codes and
        columns of the finite cells outlive the call."""
        finite = np.isfinite(vals)
        v = vals[finite]
        vmin = float(v.min()) if v.size else 0.0
        vmax = float(v.max()) if v.size else 1.0
        span = (vmax - vmin) or 1.0
        xe = px.at(_edges(px.units(xc))).tolist()
        ye = py.at(_edges(py.units(yc))).tolist()
        xs = [(_fmt(min(a, b)), _fmt(abs(b - a))) for a, b in zip(xe, xe[1:])]
        ys = [(_fmt(min(a, b)), _fmt(abs(b - a))) for a, b in zip(ye, ye[1:])]
        # viridis: linear between the two stops around v, truncated to 0..255,
        # one channel at a time
        pos = np.clip((v - vmin) / span, 0.0, 1.0) * (len(_VIRIDIS) - 1)
        k = np.minimum(pos.astype(int), len(_VIRIDIS) - 2)
        f = pos - k
        codes = np.zeros(k.size, dtype=int)
        for lo, hi in zip(_VIRIDIS[:-1].T, _VIRIDIS[1:].T):
            codes = codes << 8 | (255 * ((1 - f) * lo[k] + f * hi[k])).astype(int)
        cols = np.nonzero(finite)[1]
        ends = np.cumsum(finite.sum(axis=1)).tolist()
        return (
            "\n".join([
                f'<rect x="{xs[j][0]}" y="{y}" width="{xs[j][1]}" height="{h}" fill="#{c:06x}"/>'
                for j, c in zip(cols[start:end].tolist(), codes[start:end].tolist())
            ])
            for (y, h), start, end in zip(ys, [0, *ends], ends)
            if end > start
        )

    def _marks(self, el, pxy) -> list[str]:
        """The SVG of one line, fill or points element; lines and fills need
        two points."""
        kind, x, y, color, style = el[:5]
        if kind == "points":
            return [
                f'<circle cx="{cx}" cy="{cy}" r="{style}" fill="{color}"/>'
                for cx, cy in zip(*pxy(x, y))
            ]
        if x.size < 2:
            return []
        pts = list(map(",".join, zip(*pxy(x, y))))
        if kind == "line":
            dash_attr = f' stroke-dasharray="{el[5]}"' if el[5] else ""
            return [
                f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" '
                f'stroke-width="{style}"{dash_attr}/>'
            ]
        base = min(y[y > 0], default=1e-30) if self.ylog else 0.0
        (x_first, x_last), (y_base, _) = pxy(x[[0, -1]], [base, base])
        pts = [f"{x_first},{y_base}", *pts, f"{x_last},{y_base}"]
        return [
            f'<polygon points="{" ".join(pts)}" fill="{color}" '
            f'fill-opacity="{style}" stroke="none"/>'
        ]

    def render(self, path, timestamp: str | None = None) -> str:
        """Write the whole SVG, once built, to ``path``; returns its SHA-256.
        A vline, hline or annotate value with no finite pixel is a
        ValueError, and no file is written."""
        px, py = self._scales()
        (x0, x1), (y0, y1) = (px.a, px.b), (py.a, py.b)

        def pxy(x, y):
            """The formatted pixels of whole x and y arrays."""
            return [*map(_fmt, px(x).tolist())], [*map(_fmt, py(y).tolist())]

        def pixel(axis, v, what):
            """The formatted pixel of one value, which the axis need not
            span: a value far outside it maps to no finite pixel, and is
            refused with a ValueError naming ``what`` and the value."""
            with np.errstate(over="ignore"):
                p = float(axis(v))
            if not math.isfinite(p):
                raise ValueError(f"{what} = {v!r} lies too far outside the axis: its pixel is {p}")
            return _fmt(p)

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">'
        ]
        if timestamp is not None:
            out.append(f"<!-- generated {timestamp} -->")
        out.append(f'<rect width="{self.width}" height="{self.height}" fill="white"/>')

        legend_items = []
        for el in self._elements:
            kind = el[0]
            if kind == "cells":
                _, xc, yc, vals, label = el
                out += self._cell_rects(px, py, xc, yc, vals)
                if label:
                    legend_items.append((label, "#808080"))
            elif kind in ("fill", "line", "points"):
                out += self._marks(el, pxy)
                if el[-1]:
                    legend_items.append((el[-1], el[3]))
            elif kind == "vline":
                _, xv, color, dash, label = el
                sx = pixel(px, xv, "vline x")
                out.append(
                    f'<line x1="{sx}" y1="{y0}" x2="{sx}" y2="{y1}" '
                    f'stroke="{color}" stroke-dasharray="{dash}"/>'
                )
                if label:
                    legend_items.append((label, color))
            elif kind == "hline":
                _, yv, color, dash = el
                sy = pixel(py, yv, "hline y")
                out.append(
                    f'<line x1="{x0}" y1="{sy}" x2="{x1}" y2="{sy}" '
                    f'stroke="{color}" stroke-dasharray="{dash}"/>'
                )
            elif kind == "annotate":
                _, text, xv, yv, color = el
                sx, sy = pixel(px, xv, "annotate x"), pixel(py, yv, "annotate y")
                out.append(f'<text x="{sx}" y="{sy}" font-size="11" fill="{color}">{text}</text>')

        # axes frame and ticks
        out.append(
            f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
            f'fill="none" stroke="black" stroke-width="1"/>'
        )
        for v, text in px.ticks():
            sx = px.at(v)
            out.append(
                f'<line x1="{_fmt(sx)}" y1="{y0}" x2="{_fmt(sx)}" y2="{y0 + 5}" stroke="black"/>'
            )
            out.append(
                f'<text x="{_fmt(sx)}" y="{y0 + 18}" font-size="11" '
                f'text-anchor="middle">{text}</text>'
            )
        for v, text in py.ticks():
            sy = py.at(v)
            out.append(
                f'<line x1="{x0 - 5}" y1="{_fmt(sy)}" x2="{x0}" y2="{_fmt(sy)}" stroke="black"/>'
            )
            out.append(
                f'<text x="{x0 - 8}" y="{_fmt(sy + 4)}" font-size="11" '
                f'text-anchor="end">{text}</text>'
            )
        if self.title:
            out.append(
                f'<text x="{(x0 + x1) / 2}" y="{y1 - 12}" font-size="14" '
                f'text-anchor="middle">{self.title}</text>'
            )
        if self.xlabel:
            out.append(
                f'<text x="{(x0 + x1) / 2}" y="{self.height - 14}" font-size="12" '
                f'text-anchor="middle">{self.xlabel}</text>'
            )
        if self.ylabel:
            out.append(
                f'<text x="16" y="{(y0 + y1) / 2}" font-size="12" text-anchor="middle" '
                f'transform="rotate(-90 16 {(y0 + y1) / 2})">{self.ylabel}</text>'
            )
        for k, (label, color) in enumerate(legend_items):
            ly = y1 + 14 + 16 * k
            out.append(
                f'<rect x="{x1 - 150}" y="{ly - 9}" width="12" height="9" fill="{color}"/>'
            )
            out.append(
                f'<text x="{x1 - 134}" y="{ly}" font-size="11">{label}</text>'
            )
        out.append("</svg>")
        return _write_lines(path, (piece + "\n" for piece in out))
