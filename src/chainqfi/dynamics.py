"""Finite-temperature dynamical structure factor of the chain at the
antiferromagnetic zone center, and its dynamic-susceptibility form.

The line shape is the conformal-field-theory result with logarithmic
corrections (Starykh form),

    S(omega, T) = [1 - exp(-omega/k_B T)]^-1 * (A / pi T) * 2^(2 d - 3/2)
                  * sin(2 pi d) * L^(1/2) * Gamma^2(1 - 2 d)
                  * Im[ Gamma^2(d - ix) / Gamma^2(1 - d - ix) ],

with L = ln(T0/T), scaling dimension d = (1 - 1/(2L))/4 and
x = omega / (4 pi k_B T). The detailed-balance (Bose) prefactor is never
formed on its own: chi_imag_starykh evaluates the analytically cancelled
product, which is finite and odd through omega = 0.

Above the cutoff (T >= T0) the logarithm goes negative and the formula is
undefined; the ``negative_log_policy`` chooses between refusing such
temperatures ("strict") and substituting |ln(T0/T)| ("absolute_value").
The policy in force is recorded in every output manifest downstream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import fitter, specfun
from .core import DEFAULT_UNITS, EnergyCut, _require_positive, _temperature, _temperatures
from .errors import BoseFactorPole, CutoffDomainError

__all__ = [
    "POLICIES",
    "StarykhParams",
    "scaling_dimension",
    "sqw_starykh",
    "sqw_on_axis",
    "chi_imag_from_sqw",
    "detailed_balance",
    "chi_imag_starykh",
    "fit_starykh",
    "t0_feasible_interval",
]

POLICIES = ("strict", "absolute_value")

# |ln(T0/T)| must exceed 1/2 for the scaling dimension to stay positive.
_MIN_LOG = 0.5


@dataclass(frozen=True)
class StarykhParams:
    """Line-shape parameters: non-universal amplitude, high-energy cutoff
    (K), exchange coupling (K, metadata), and the negative-log policy."""

    a_starykh: float
    t0_kelvin: float
    j_over_kb: float
    negative_log_policy: str = "strict"

    def __post_init__(self):
        _require_positive(self, "a_starykh", "t0_kelvin", "j_over_kb")
        if self.negative_log_policy not in POLICIES:
            raise ValueError(
                f"negative_log_policy must be one of {POLICIES}, "
                f"got {self.negative_log_policy!r}"
            )


def _log_cutoff_ratio(t: float, params: StarykhParams) -> float:
    """ln(T0/T) under the active policy, validated against the 1/2 floor."""
    log_ratio = math.log(params.t0_kelvin / _temperature(t))
    if params.negative_log_policy == "absolute_value":
        log_ratio = abs(log_ratio)
    if log_ratio <= _MIN_LOG:
        raise CutoffDomainError(
            f"T = {t:g} K is too close to the cutoff T0 = {params.t0_kelvin:g} K: "
            f"need |ln(T0/T)| > {_MIN_LOG} under policy "
            f"'{params.negative_log_policy}' (got {log_ratio:.4g}); "
            "switch --policy or move the temperature"
        )
    return log_ratio


def scaling_dimension(t: float, params: StarykhParams) -> float:
    """Temperature-dependent scaling dimension d = (1 - 1/(2 ln(T0/T)))/4.

    Always in (0, 1/4) on the admitted domain; tends to 1/4 as T -> 0.
    """
    log_ratio = _log_cutoff_ratio(t, params)
    return 0.25 * (1.0 - 1.0 / (2.0 * log_ratio))


def chi_imag_starykh(omega, t: float, params: StarykhParams):
    """Imaginary dynamic susceptibility chi''(omega, T), Bose factor cancelled.

    Odd in omega (bitwise), exactly zero at omega = 0, nonnegative for
    omega >= 0 on the admitted domain. ``omega`` may be a scalar (a float
    is returned) or an array (meV); the temperature-dependent prefactor is
    formed once per call.
    """
    log_ratio = _log_cutoff_ratio(t, params)
    delta = scaling_dimension(t, params)
    prefactor = (
        params.a_starykh
        / (math.pi * t)
        * 2.0 ** (2.0 * delta - 1.5)
        * math.sin(2.0 * math.pi * delta)
        * math.sqrt(log_ratio)
        * math.exp(2.0 * math.lgamma(1.0 - 2.0 * delta))  # Gamma(1 - 2d)^2, 1 - 2d in (1/2, 1)
    )
    return prefactor * specfun.gamma_ratio_im(delta, omega, t)


def sqw_starykh(omega, t: float, params: StarykhParams):
    """Dynamical structure factor at the zone center (arbitrary units).

    Formed as chi'' divided by the detailed-balance factor, so
    S(-omega)/S(omega) = exp(-omega/k_B T) holds identically. omega = 0 is
    a pole of the Bose factor and is rejected.
    """
    omega_arr = np.asarray(omega, dtype=float)
    if np.any(omega_arr == 0.0):
        raise BoseFactorPole("S(Q, omega) has a Bose-factor pole at omega = 0")
    out = chi_imag_starykh(omega_arr, t, params) / detailed_balance(omega_arr, t)
    return float(out) if omega_arr.ndim == 0 else out


def sqw_on_axis(e: np.ndarray, t: float, params: StarykhParams) -> np.ndarray:
    """S(E) on an energy axis, with its finite limit at E = 0."""
    out = np.empty(e.shape)
    nonzero = e != 0.0
    out[nonzero] = sqw_starykh(e[nonzero], t, params)
    if not nonzero.all():
        # limit of chi''/(1 - exp(-E/kT)) at E = 0: kT * d(chi'')/dE, by a
        # central difference; chi'' is odd, so (chi(h) - chi(-h)) / 2h = chi(h) / h
        h = 1e-6
        slope = chi_imag_starykh(h, t, params) / h
        out[~nonzero] = DEFAULT_UNITS.boltzmann_mev_per_kelvin * t * slope
    return out


def detailed_balance(omega, t: float) -> np.ndarray:
    """The fluctuation-dissipation factor 1 - exp(-omega/k_B T) = chi''/S."""
    kb = DEFAULT_UNITS.boltzmann_mev_per_kelvin
    return -np.expm1(-np.asarray(omega, dtype=float) / (kb * t))


def chi_imag_from_sqw(s_value, omega, t: float):
    """Fluctuation-dissipation conversion chi'' = (1 - exp(-omega/k_B T)) S."""
    out = detailed_balance(omega, _temperature(t)) * np.asarray(s_value, dtype=float)
    return float(out) if out.ndim == 0 else out


def t0_feasible_interval(
    temperatures: Sequence[float], policy: str, t0_initial: float
) -> tuple[float, float | None]:
    """Open interval of cutoff values compatible with every temperature.

    Under the strict policy T0 must exceed exp(1/2) max(T). Under the
    absolute-value policy each temperature T excludes the closed band
    [T exp(-1/2), T exp(1/2)]; the interval returned is the connected
    component containing ``t0_initial``. Raises CutoffDomainError when the
    initial cutoff itself is infeasible.
    """
    temps = sorted(_temperatures(temperatures).tolist())
    if not temps:
        raise ValueError("need at least one temperature")
    if policy == "strict":
        lo = temps[-1] * math.exp(_MIN_LOG)
        if t0_initial <= lo:
            raise CutoffDomainError(
                f"initial T0 = {t0_initial:g} K violates the strict policy for "
                f"T = {temps[-1]:g} K (need T0 > {lo:g} K)"
            )
        return (lo, None)
    bands = [(t * math.exp(-_MIN_LOG), t * math.exp(_MIN_LOG)) for t in temps]
    for t, (lo, hi) in zip(temps, bands):
        if lo <= t0_initial <= hi:
            raise CutoffDomainError(
                f"initial T0 = {t0_initial:g} K falls in the band [{lo:g}, {hi:g}] K "
                f"that T = {t:g} K excludes under the absolute-value policy"
            )
    # no band holds T0, so the interval runs between the nearest bands around it
    lower = max((hi for _, hi in bands if hi < t0_initial), default=0.0)
    upper = min((lo for lo, _ in bands if lo > t0_initial), default=None)
    return (lower, upper)


def fit_starykh(cuts: Sequence[EnergyCut], initial: StarykhParams) -> fitter.FitResult:
    """Joint temperature-independent fit of (A, T0) to chi'' energy cuts.

    All cuts share one (a_starykh, t0_kelvin) pair. Each dataset k also
    carries a calibration entry ``cal_k``, frozen at 1.0, so that the
    result lists one per cut. The cutoff parameter is bounded to the
    feasible interval dictated by the active policy, so the optimizer
    cannot wander across a domain boundary mid-fit.
    """
    if not cuts:
        raise ValueError("need at least one energy cut")
    cal_names = [f"cal_{k}" for k in range(len(cuts))]
    start = {"a_starykh": initial.a_starykh, "t0_kelvin": initial.t0_kelvin}
    start.update(dict.fromkeys(cal_names, 1.0))

    t0_bounds = t0_feasible_interval(
        [c.temperature for c in cuts], initial.negative_log_policy, initial.t0_kelvin
    )
    bounds = {"a_starykh": (0.0, None), "t0_kelvin": t0_bounds}

    weight_blocks = [fitter.sigma_weights(c.errors) for c in cuts]

    def residuals(p):
        model_params = replace(initial, a_starykh=p["a_starykh"], t0_kelvin=p["t0_kelvin"])
        blocks = []
        for cut, weights in zip(cuts, weight_blocks):
            model = chi_imag_starykh(cut.e_axis, cut.temperature, model_params)
            blocks.append((model - cut.values) * weights)
        return np.concatenate(blocks)

    return fitter.least_squares(residuals, start, frozen=cal_names, bounds=bounds)
