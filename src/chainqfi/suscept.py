"""Static susceptibility of the uniform spin-1/2 chain and the
susceptibility-based entanglement witness.

The chain susceptibility is carried as a [2/3] rational approximant in
x = J / (k_B T) multiplying the Curie prefactor N g^2 mu_B^2 / (k_B T).
The coefficient set is a module constant and can be swapped behind the
same interface.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import fitter
from .core import DEFAULT_UNITS, ChainParameters
from .core import _freeze, _frozen_array, _positive, _require_strictly_increasing, _temperatures
from .errors import NoInteriorMaximum

__all__ = [
    "SusceptibilityCurve",
    "WitnessSeries",
    "PADE_NUMERATOR",
    "PADE_DENOMINATOR",
    "TMAX_OVER_J",
    "chi_bonner_fisher",
    "chi_full",
    "fit_susceptibility",
    "find_tmax",
    "find_tmax_model",
    "j_from_tmax",
    "witness_mwse",
]

# Rational approximant for the uniform-chain susceptibility,
# chi = (N g^2 mu_B^2 / k_B T) * N(x)/D(x) with x = J / (k_B T).
# Numerator fixed at 0.25 + 0.074975 x + 0.075235 x^2 (exact Curie limit);
# the cubic denominator coefficient is calibrated so the curve's maximum
# sits at k_B T / J = 0.640851 (the high-temperature-series peak position),
# which the historical 0.757825 value misses by ~1%.
PADE_NUMERATOR = (0.25, 0.074975, 0.075235)
PADE_DENOMINATOR = (1.0, 0.9931, 0.172135, 0.748472545171346)

# Peak position of the chain susceptibility: T_max = 0.640851 * J / k_B.
TMAX_OVER_J = 0.640851


@dataclass(frozen=True)
class SusceptibilityCurve:
    """Molar susceptibility samples chi(T) with 1-sigma uncertainties."""

    temperatures: np.ndarray
    chi: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        _freeze(self, "temperatures", "chi", "sigma")
        t = self.temperatures
        _temperatures(t)  # a non-finite temperature is refused as a temperature
        _require_strictly_increasing(t, "temperatures")
        if self.chi.shape != t.shape or self.sigma.shape != t.shape:
            raise ValueError("temperatures, chi, sigma must have equal length")
        if np.any(self.sigma < 0):
            raise ValueError("sigma must be nonnegative")

    def __len__(self):
        return self.temperatures.size


@dataclass(frozen=True)
class WitnessSeries:
    """Entanglement-witness values per temperature; ``t_se`` is the first
    negative-to-positive crossing (None when the series never crosses)."""

    temperatures: np.ndarray
    mw_se: np.ndarray
    t_se: float | None


def _pade(x):
    a0, a1, a2 = PADE_NUMERATOR
    b0, b1, b2, b3 = PADE_DENOMINATOR
    return (a0 + x * (a1 + x * a2)) / (b0 + x * (b1 + x * (b2 + x * b3)))


def _molar_moment_squared(g_factor):
    """N_A (g mu_B)^2, the numerator of the Curie constant."""
    u = DEFAULT_UNITS
    try:
        return u.avogadro * (g_factor * u.bohr_magneton) ** 2
    except OverflowError:  # a float power overflows where a product would give inf
        return np.inf


def _chain(t, j_over_kb, g_factor):
    curie = _molar_moment_squared(g_factor) / (DEFAULT_UNITS.boltzmann_erg_per_kelvin * t)
    return curie * _pade(j_over_kb / t)


def _chain_full(t, p, impurity_curie: bool):
    """chi_full on validated temperatures; ``p`` maps j_over_kb, g_factor, c0, c1."""
    impurity = p["c0"] / t if impurity_curie else p["c0"]
    return impurity + p["c1"] + _chain(t, p["j_over_kb"], p["g_factor"])


def chi_bonner_fisher(t, params: ChainParameters):
    """Uniform-chain susceptibility (emu/mole) at temperature ``t`` (K).

    Positive everywhere, Curie-like at high temperature, with a single
    maximum at T = 0.640851 J/k_B.
    """
    out = _chain(_temperatures(t), params.j_over_kb, params.g_factor)
    return float(out) if out.ndim == 0 else out


def chi_full(t, params: ChainParameters, impurity_curie: bool = False):
    """Chain susceptibility plus the impurity and diamagnetic constants.

    With ``impurity_curie=False`` (default) the impurity term is the
    literal constant ``c0``; with True it is read as a Curie coefficient
    and contributes ``c0 / t`` (c0 then in emu K/mole).
    """
    out = _chain_full(_temperatures(t), vars(params), impurity_curie)
    return float(out) if out.ndim == 0 else out


def fit_susceptibility(
    curve: SusceptibilityCurve,
    initial: ChainParameters,
    frozen: Iterable[str] = ("c1",),
    impurity_curie: bool = False,
) -> fitter.FitResult:
    """Weighted least-squares fit of chi_full to a measured curve.

    Free parameters come from {j_over_kb, g_factor, c0, c1} minus the
    frozen set. ``c1`` is frozen by default: with the literal constant
    impurity term, c0 and c1 are exactly degenerate (only their sum is
    identifiable), matching the usual practice of fixing the diamagnetic
    correction from tabulated increments. Points with sigma = 0 enter with
    unit weight.
    """
    if len(curve) < 4:
        raise ValueError("need at least 4 points to fit the susceptibility")
    weights = fitter.sigma_weights(curve.sigma)
    t = curve.temperatures

    def residuals(p):
        return (_chain_full(t, p, impurity_curie) - curve.chi) * weights

    start = {
        "j_over_kb": initial.j_over_kb,
        "g_factor": initial.g_factor,
        "c0": initial.c0,
        "c1": initial.c1,
    }
    bounds = {
        "j_over_kb": (0.0, None),
        "g_factor": (0.0, None),
        "c1": (None, 0.0),
    }
    frozen = set(frozen)
    # the one-sided transform cannot represent an endpoint start; nudge off 0
    if "c1" not in frozen and start["c1"] == 0.0:
        start["c1"] = -1e-12
    return fitter.least_squares(residuals, start, frozen=frozen, bounds=bounds)


def find_tmax(temperatures, chi_values) -> tuple[float, float]:
    """Locate the susceptibility maximum of a sampled curve.

    Fits a parabola through the three samples bracketing the discrete
    maximum and returns (vertex, half the local grid spacing). Raises
    :class:`NoInteriorMaximum` when the maximum sits on the boundary.
    """
    t = np.asarray(temperatures, dtype=float)
    y = np.asarray(chi_values, dtype=float)
    if t.size != y.size or t.size < 3:
        raise ValueError("need at least 3 samples of equal length")
    i = int(np.argmax(y))
    if i == 0 or i == t.size - 1:
        raise NoInteriorMaximum("susceptibility maximum is not bracketed by the grid")
    t0, t1, t2 = t[i - 1], t[i], t[i + 1]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = (t1 - t0) * (y1 - y2) - (t1 - t2) * (y1 - y0)
    if denom == 0:
        raise NoInteriorMaximum("degenerate parabola through the bracketing samples")
    vertex = t1 - 0.5 * ((t1 - t0) ** 2 * (y1 - y2) - (t1 - t2) ** 2 * (y1 - y0)) / denom
    uncertainty = 0.25 * (t2 - t0)
    return float(vertex), float(uncertainty)


def find_tmax_model(params: ChainParameters, step: float = 0.01) -> tuple[float, float]:
    """find_tmax applied to the chain model sampled at ``step`` K over
    [0.2 J, 2 J], which brackets the peak at 0.640851 J. The step widens to
    keep the samples to about 10,000, so that memory and time stay bounded
    for any J (at 0.01 K, for J/k_B above 55 K)."""
    lo, hi = 0.2 * params.j_over_kb, 2.0 * params.j_over_kb
    step = max(step, (hi - lo) / 10_000)
    t = np.arange(lo, hi + 0.5 * step, step)
    return find_tmax(t, chi_bonner_fisher(t, params))


def j_from_tmax(t_max: float) -> float:
    """Exchange coupling J/k_B (K) from the susceptibility peak position."""
    return _positive(t_max, "t_max") / TMAX_OVER_J


def witness_mwse(curve: SusceptibilityCurve, params: ChainParameters) -> WitnessSeries:
    """Macroscopic spin-entanglement witness from the averaged susceptibility.

    MW_SE(T) = 3 k_B T chi(T) / ((g mu_B)^2 N S) - 1, with the input curve
    taken as the three-axis average. Negative values witness entanglement;
    ``t_se`` is the linearly interpolated first crossing from negative to
    nonnegative values.
    """
    t = curve.temperatures
    name = f"N_A (g mu_B)^2 S at g = {params.g_factor:g}"
    denom = _positive(_molar_moment_squared(params.g_factor) * params.spin, name)
    mw = 3.0 * DEFAULT_UNITS.boltzmann_erg_per_kelvin * t * curve.chi / denom - 1.0

    t_se = None
    for i in range(mw.size - 1):
        if mw[i] < 0.0 <= mw[i + 1]:
            t_se = float(t[i] + (0.0 - mw[i]) * (t[i + 1] - t[i]) / (mw[i + 1] - mw[i]))
            break
    return WitnessSeries(temperatures=t, mw_se=_frozen_array(mw), t_se=t_se)
