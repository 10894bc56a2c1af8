"""Two-spinon continuum boundaries and the powder-to-1D conversion.

For a one-dimensional dispersion the spherical (powder) average reduces to

    S_pwd(Q, E) = (1/Q) * Integral_0^Q S_1D(q, E) dq,

which is inverted exactly by the momentum derivative

    S_1D(Q_1D, E) = d[Q S_pwd(Q, E)]/dQ = S_pwd + Q dS_pwd/dQ  at Q = Q_1D.

The product rule keeps the analytic Q factor exact; only dS_pwd/dQ is
discretized, with second-order stencils (central in the interior,
one-sided at the edges), so powder maps that are quadratic in Q convert
exactly. Measurement errors propagate in quadrature through the stencil
weights.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from . import quadrature
from .core import SpectrumGrid, _positive, _require_strictly_increasing
from .errors import GridTooCoarse

__all__ = ["two_spinon_bounds", "powder_to_1d", "forward_powder_average"]


def two_spinon_bounds(q_1d, j_mev: float, c: float):
    """Boundaries of the two-spinon continuum at momentum ``q_1d`` (1/Angstrom).

    lower = (pi J / 2) |sin(q c)|, upper = pi J |sin(q c / 2)|, with J in
    meV and c the chain-axis lattice parameter in Angstrom. Both are
    periodic in q c with period 2 pi; the upper bound reaches pi J at
    q c = pi.
    """
    _positive(j_mev, "j_mev")
    _positive(c, "lattice parameter c")
    qc = np.asarray(q_1d, dtype=float) * c
    lower = 0.5 * math.pi * j_mev * np.abs(np.sin(qc))
    upper = math.pi * j_mev * np.abs(np.sin(0.5 * qc))
    if qc.ndim == 0:
        return float(lower), float(upper)
    return lower, upper


def _derivative_weights(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Three-point second-order first-derivative stencils on a possibly
    nonuniform grid: the start j of each point's window x[j:j + 3] (central
    in the interior, one-sided at the two edges), and an (n, 3) array whose
    row i weights that window to give the derivative at x[i]."""
    start = np.clip(np.arange(x.size) - 1, 0, x.size - 3)
    x0, x1, x2 = x[start], x[start + 1], x[start + 2]
    # derivative at x of the Lagrange basis polynomial of node a, nodes (a, b, c)
    nodes = ((x0, x1, x2), (x1, x0, x2), (x2, x0, x1))
    weights = np.stack([(2 * x - b - c) / ((a - b) * (a - c)) for a, b, c in nodes], axis=1)
    return start, weights


def powder_to_1d(grid: SpectrumGrid) -> SpectrumGrid:
    """Recover the single-crystal-like 1D map from a powder-averaged grid:
    column i is S_i + Q_i * (S[:, j:j + 3] @ w) for row i of ``_derivative_weights``."""
    q = grid.q_axis
    if q.size < 3:
        raise GridTooCoarse(
            f"powder-to-1D needs at least 3 momentum points, got {q.size}; "
            "supply a grid with finer momentum binning"
        )
    start, weights = _derivative_weights(q)
    out = np.empty_like(grid.intensity)
    out_err = np.empty_like(grid.errors)
    for i, (j, w) in enumerate(zip(start.tolist(), weights)):
        out[:, i] = grid.intensity[:, i] + q[i] * (grid.intensity[:, j : j + 3] @ w)
        # combined coefficients of S_k in S_i + Q_i * sum_k w_k S_k
        coeff = q[i] * w
        coeff[i - j] += 1.0
        out_err[:, i] = np.sqrt((grid.errors[:, j : j + 3] ** 2) @ (coeff**2))
    return replace(grid, intensity=out, errors=out_err)


def forward_powder_average(
    s_1d: Callable[[float, float], float],
    q_axis,
    e_axis,
) -> SpectrumGrid:
    """Powder average of an even 1D scattering function.

    ``s_1d(q, e)`` must be even in q. Each grid cell is evaluated by
    adaptive G10/K21 quadrature of (1/Q) Integral_0^Q s_1d. ``s_1d`` is
    called with a 1-d array of q nodes and a float e; one that accepts only
    a float q (found out once per call) is evaluated node by node instead.
    Doubles as the synthetic-data engine and as the round-trip oracle for
    :func:`powder_to_1d`. The grid carries temperature 1.0.
    """
    q = np.asarray(q_axis, dtype=float)
    e = np.asarray(e_axis, dtype=float)
    bad = np.flatnonzero(~np.isfinite(q))
    if bad.size:
        raise ValueError(
            f"q_axis must be finite for the powder average, got {q[bad[0]]} at entry {bad[0]}"
        )
    if np.any(q <= 0):
        raise ValueError("q_axis must be strictly positive for the powder average")
    for axis, name in ((q, "q_axis"), (e, "e_axis")):
        _require_strictly_increasing(axis, name)  # as the returned grid would, before any call
    s_nodes = quadrature.array_function(s_1d)
    intensity = np.empty((e.size, q.size))
    for i, energy in enumerate(e.tolist()):
        for j, q_val in enumerate(q.tolist()):
            integral = quadrature.gauss_kronrod(
                lambda qq, energy=energy: s_nodes(qq, energy),
                [0.0, q_val],
                epsrel=1e-10,
                epsabs=1e-12,
                what=f"powder average at Q = {q_val:g}, E = {energy:g}",
            ).value
            intensity[i, j] = integral / q_val
    return SpectrumGrid(
        q_axis=q,
        e_axis=e,
        intensity=intensity,
        errors=np.zeros_like(intensity),
        temperature=1.0,
    )
