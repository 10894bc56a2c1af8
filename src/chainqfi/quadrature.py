"""Globally adaptive Gauss-Kronrod quadrature on whole node arrays (numpy only).

Each panel is integrated with the 21-point Kronrod rule and its embedded
10-point Gauss rule (G10/K21), with QUADPACK's error estimate (Piessens
et al., QUADPACK, 1983, routine QK21). Every round splits, at their
midpoints, the panels with the largest error estimates until the panels
left alone carry less than half the tolerance, and evaluates the
integrand once on the nodes of all new panels together. As in QUADPACK,
a first estimate that equals ``resasc`` (the rule found no smooth
structure to trust) is not accepted.
"""
from __future__ import annotations

import math
import warnings
from typing import Callable, NamedTuple

import numpy as np

from .errors import QuadratureLimitWarning

__all__ = ["Quadrature", "gauss_kronrod", "array_function"]

# Nonnegative Kronrod nodes (descending) and their weights; the Gauss nodes
# are the odd-indexed ones.
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208636081430, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.zeros(11)
_WG[1:10:2] = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_NODES = np.concatenate((-_XK[:-1], _XK[::-1]))
_KRONROD = np.concatenate((_WK[:-1], _WK[::-1]))
_GAUSS = np.concatenate((_WG[:-1], _WG[::-1]))
_MAX_PANELS = 200
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


class Quadrature(NamedTuple):
    """Integral, error estimate, and the left edges and integrals of the
    final panels (so partial integrals come from the same evaluation)."""

    value: float
    error: float
    lo: np.ndarray
    values: np.ndarray


def array_function(f: Callable) -> Callable:
    """``f`` itself if it maps a node array to an array of the same shape,
    else a loop calling ``f`` on one Python float at a time. The choice is
    made once, on the first call."""
    elementwise = None

    def call(x: np.ndarray, *args) -> np.ndarray:
        nonlocal elementwise
        if elementwise is None:
            try:
                y = np.asarray(f(x, *args), dtype=float)
                elementwise = y.shape == x.shape
                if elementwise:
                    return y
            except (TypeError, ValueError):
                elementwise = False
        if elementwise:
            return np.asarray(f(x, *args), dtype=float)
        return np.array([f(v, *args) for v in x.tolist()], dtype=float)

    return call


def _panels(f, lo: np.ndarray, hi: np.ndarray):
    """QK21 on every panel: (integral, error estimate, resasc)."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    fx = f(x.ravel()).reshape(x.shape)
    resk = fx @ _KRONROD
    err = np.abs(resk - fx @ _GAUSS) * half
    resabs = np.abs(fx) @ _KRONROD * half
    resasc = np.abs(fx - 0.5 * resk[:, None]) @ _KRONROD * half
    scaled = resasc * np.minimum(1.0, (200.0 * err / np.where(resasc > 0, resasc, 1.0)) ** 1.5)
    err = np.where((resasc > 0) & (err > 0), scaled, err)
    err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
    return resk * half, err, resasc


def gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray],
    edges,
    epsrel: float = 1e-8,
    epsabs: float = 0.0,
    what: str = "integral",
) -> Quadrature:
    """Integrate ``f`` over [edges[0], edges[-1]] to max(epsabs, epsrel*|I|).

    ``f`` takes a 1-d array of nodes and returns the integrand there (wrap
    a scalar-only callable with :func:`array_function`). The interior
    ``edges`` are breakpoints no panel straddles. At most ``_MAX_PANELS``
    panels are used; if the tolerance is not met by then, a
    :class:`QuadratureLimitWarning` naming ``what`` and the error reached
    is issued and the best estimate is returned. An error estimate that is
    not finite (the integrand overflows) is returned as it is, unrefined.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    values, errors, resasc = _panels(f, lo, hi)
    distrust = (errors == resasc) & (errors > 0)
    while True:
        total = float(errors.sum())
        tol = max(epsabs, epsrel * abs(float(values.sum())))
        # splitting cannot mend a non-finite estimate: return it at once
        if (total <= tol and not distrust.any()) or not math.isfinite(total):
            break
        order = np.argsort(np.where(distrust, np.inf, errors), kind="stable")[::-1]
        left_alone = total - np.cumsum(errors[order])
        n_split = max(1 + np.count_nonzero(left_alone > 0.5 * tol), np.count_nonzero(distrust))
        n_split = min(n_split, _MAX_PANELS - lo.size)
        if n_split <= 0:
            warnings.warn(
                f"{what}: panel limit {_MAX_PANELS} reached with error estimate {total:.3g} "
                f"(tolerance {tol:.3g})",
                QuadratureLimitWarning,
                stacklevel=3,
            )
            break
        split, keep = order[:n_split], order[n_split:]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_values, new_errors, _ = _panels(f, new_lo, new_hi)
        lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
        values = np.concatenate((values[keep], new_values))
        errors = np.concatenate((errors[keep], new_errors))
        distrust = np.zeros(lo.size, dtype=bool)
    return Quadrature(math.fsum(values), math.fsum(errors), lo, values)
