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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quadrature
from .core import SpectrumGrid, _frozen_array
from .errors import GridTooCoarse

__all__ = [
    "ContinuumBounds",
    "two_spinon_bounds",
    "continuum_bounds",
    "powder_to_1d",
    "forward_powder_average",
]


@dataclass(frozen=True)
class ContinuumBounds:
    """Lower and upper two-spinon boundaries sampled on a momentum axis."""

    q_axis: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q_axis", _frozen_array(self.q_axis, "q_axis"))
        object.__setattr__(self, "lower", _frozen_array(self.lower, "lower"))
        object.__setattr__(self, "upper", _frozen_array(self.upper, "upper"))


def two_spinon_bounds(q_1d, j_mev: float, c: float):
    """Boundaries of the two-spinon continuum at momentum ``q_1d`` (1/Angstrom).

    lower = (pi J / 2) |sin(q c)|, upper = pi J |sin(q c / 2)|, with J in
    meV and c the chain-axis lattice parameter in Angstrom. Both are
    periodic in q c with period 2 pi; the upper bound reaches pi J at
    q c = pi.
    """
    if not (j_mev > 0):
        raise ValueError(f"j_mev must be positive, got {j_mev}")
    if not (c > 0):
        raise ValueError(f"lattice parameter c must be positive, got {c}")
    qc = np.asarray(q_1d, dtype=float) * c
    lower = 0.5 * math.pi * j_mev * np.abs(np.sin(qc))
    upper = math.pi * j_mev * np.abs(np.sin(0.5 * qc))
    if qc.ndim == 0:
        return float(lower), float(upper)
    return lower, upper


def continuum_bounds(q_axis, j_mev: float, c: float) -> ContinuumBounds:
    lower, upper = two_spinon_bounds(np.asarray(q_axis, dtype=float), j_mev, c)
    return ContinuumBounds(q_axis=np.asarray(q_axis, dtype=float), lower=lower, upper=upper)


def _derivative_weights(x: np.ndarray) -> list[tuple[slice, np.ndarray]]:
    """Three-point second-order first-derivative stencils on a possibly
    nonuniform grid: (index window, weights) per output point."""
    n = x.size
    out = []
    for i in range(n):
        if i == 0:
            j = 0
        elif i == n - 1:
            j = n - 3
        else:
            j = i - 1
        x0, x1, x2 = x[j], x[j + 1], x[j + 2]
        xi = x[i]
        # derivative of the Lagrange interpolating parabola at xi
        w0 = (2 * xi - x1 - x2) / ((x0 - x1) * (x0 - x2))
        w1 = (2 * xi - x0 - x2) / ((x1 - x0) * (x1 - x2))
        w2 = (2 * xi - x0 - x1) / ((x2 - x0) * (x2 - x1))
        out.append((slice(j, j + 3), np.array([w0, w1, w2])))
    return out


def powder_to_1d(grid: SpectrumGrid) -> SpectrumGrid:
    """Recover the single-crystal-like 1D map from a powder-averaged grid."""
    q = grid.q_axis
    if q.size < 3:
        raise GridTooCoarse(
            f"powder-to-1D needs at least 3 momentum points, got {q.size}; "
            "supply a grid with finer momentum binning"
        )
    stencils = _derivative_weights(q)
    out = np.empty_like(grid.intensity)
    out_err = np.empty_like(grid.errors)
    for i, (window, w) in enumerate(stencils):
        out[:, i] = grid.intensity[:, i] + q[i] * (grid.intensity[:, window] @ w)
        # combined coefficients of S_j in S_i + Q_i * sum_j w_j S_j
        coeff = q[i] * w
        coeff[i - window.start] += 1.0
        out_err[:, i] = np.sqrt((grid.errors[:, window] ** 2) @ (coeff**2))
    return SpectrumGrid(
        q_axis=q,
        e_axis=grid.e_axis,
        intensity=out,
        errors=out_err,
        temperature=grid.temperature,
    )


def forward_powder_average(
    s_1d: Callable[[float, float], float],
    q_axis,
    e_axis,
    temperature: float = 1.0,
) -> SpectrumGrid:
    """Powder average of an even 1D scattering function.

    ``s_1d(q, e)`` must be even in q. Each grid cell is evaluated by
    adaptive G10/K21 quadrature of (1/Q) Integral_0^Q s_1d. ``s_1d`` is
    called with a 1-d array of q nodes and a float e; one that accepts only
    a float q (found out once per call) is evaluated node by node instead.
    Doubles as the synthetic-data engine and as the round-trip oracle for
    :func:`powder_to_1d`.
    """
    q = np.asarray(q_axis, dtype=float)
    e = np.asarray(e_axis, dtype=float)
    if np.any(q <= 0):
        raise ValueError("q_axis must be strictly positive for the powder average")
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
        temperature=temperature,
    )
