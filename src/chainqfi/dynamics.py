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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import fitter, specfun
from .core import DEFAULT_UNITS, EnergyCut, UnitSystem
from .errors import BoseFactorPole, CutoffDomainError, NonPositiveTemperature

__all__ = [
    "POLICIES",
    "StarykhParams",
    "scaling_dimension",
    "sqw_starykh",
    "chi_imag_from_sqw",
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
        if not (self.a_starykh > 0):
            raise ValueError("a_starykh must be positive")
        if not (self.t0_kelvin > 0):
            raise ValueError("t0_kelvin must be positive")
        if not (self.j_over_kb > 0):
            raise ValueError("j_over_kb must be positive")
        if self.negative_log_policy not in POLICIES:
            raise ValueError(
                f"negative_log_policy must be one of {POLICIES}, "
                f"got {self.negative_log_policy!r}"
            )


def _log_cutoff_ratio(t: float, params: StarykhParams) -> float:
    """ln(T0/T) under the active policy, validated against the 1/2 floor."""
    if not (t > 0):
        raise NonPositiveTemperature(f"temperature must be positive, got {t}")
    log_ratio = math.log(params.t0_kelvin / t)
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


def chi_imag_starykh(
    omega, t: float, params: StarykhParams, units: UnitSystem = DEFAULT_UNITS
):
    """Imaginary dynamic susceptibility chi''(omega, T), Bose factor cancelled.

    Odd in omega (bitwise), exactly zero at omega = 0, nonnegative for
    omega >= 0 on the admitted domain. ``omega`` may be a scalar (a float
    is returned) or an array (meV); the temperature-dependent prefactor is
    formed once per call.
    """
    log_ratio = _log_cutoff_ratio(t, params)
    delta = 0.25 * (1.0 - 1.0 / (2.0 * log_ratio))
    prefactor = (
        params.a_starykh
        / (math.pi * t)
        * 2.0 ** (2.0 * delta - 1.5)
        * math.sin(2.0 * math.pi * delta)
        * math.sqrt(log_ratio)
        * math.exp(2.0 * math.lgamma(1.0 - 2.0 * delta))  # Gamma(1 - 2d)^2, 1 - 2d in (1/2, 1)
    )
    return prefactor * specfun.gamma_ratio_im(delta, omega, t, units)


def sqw_starykh(
    omega, t: float, params: StarykhParams, units: UnitSystem = DEFAULT_UNITS
):
    """Dynamical structure factor at the zone center (arbitrary units).

    Formed as chi'' divided by the detailed-balance factor, so
    S(-omega)/S(omega) = exp(-omega/k_B T) holds identically. omega = 0 is
    a pole of the Bose factor and is rejected.
    """
    omega_arr = np.asarray(omega, dtype=float)
    if np.any(omega_arr == 0.0):
        raise BoseFactorPole("S(Q, omega) has a Bose-factor pole at omega = 0")
    kt = units.boltzmann_mev_per_kelvin * t
    bose_weight = -np.expm1(-omega_arr / kt)  # 1 - exp(-omega/kT)
    out = chi_imag_starykh(omega_arr, t, params, units) / bose_weight
    return float(out) if omega_arr.ndim == 0 else out


def chi_imag_from_sqw(s_value, omega, t: float, units: UnitSystem = DEFAULT_UNITS):
    """Fluctuation-dissipation conversion chi'' = (1 - exp(-omega/k_B T)) S."""
    if not (t > 0):
        raise NonPositiveTemperature(f"temperature must be positive, got {t}")
    omega_arr = np.asarray(omega, dtype=float)
    kt = units.boltzmann_mev_per_kelvin * t
    out = -np.expm1(-omega_arr / kt) * np.asarray(s_value, dtype=float)
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
    temps = sorted(float(t) for t in temperatures)
    if not temps or temps[0] <= 0:
        raise NonPositiveTemperature("temperatures must be positive")
    if policy == "strict":
        lo = temps[-1] * math.exp(_MIN_LOG)
        if t0_initial <= lo:
            raise CutoffDomainError(
                f"initial T0 = {t0_initial:g} K violates the strict policy for "
                f"T = {temps[-1]:g} K (need T0 > {lo:g} K)"
            )
        return (lo, None)
    # merge the per-temperature exclusion bands
    bands: list[list[float]] = []
    for t in temps:
        band = [t * math.exp(-_MIN_LOG), t * math.exp(_MIN_LOG)]
        if bands and band[0] <= bands[-1][1]:
            bands[-1][1] = max(bands[-1][1], band[1])
        else:
            bands.append(band)
    for lo, hi in bands:
        if lo <= t0_initial <= hi:
            raise CutoffDomainError(
                f"initial T0 = {t0_initial:g} K falls in the excluded band "
                f"[{lo:g}, {hi:g}] K under the absolute-value policy"
            )
    lower = 0.0
    upper: float | None = None
    for lo, hi in bands:
        if hi < t0_initial:
            lower = max(lower, hi)
        elif lo > t0_initial:
            upper = lo if upper is None else min(upper, lo)
    return (lower, upper)


def fit_starykh(
    cuts: Sequence[EnergyCut],
    initial: StarykhParams,
    frozen: Iterable[str] = (),
    calibrations: Sequence[float] | None = None,
    fit_calibrations: bool = False,
    units: UnitSystem = DEFAULT_UNITS,
) -> fitter.FitResult:
    """Joint temperature-independent fit of (A, T0) to chi'' energy cuts.

    All cuts share one (a_starykh, t0_kelvin) pair. Each dataset k also
    carries a multiplicative calibration parameter ``cal_k`` (initialized
    from ``calibrations``, default 1.0). Calibrations stay frozen unless
    ``fit_calibrations`` is set, in which case the amplitude should be
    frozen instead: freeing both leaves only their products identifiable.
    The cutoff parameter is bounded to the feasible interval dictated by
    the active policy, so the optimizer cannot wander across a domain
    boundary mid-fit.
    """
    if not cuts:
        raise ValueError("need at least one energy cut")
    cals = [1.0] * len(cuts) if calibrations is None else [float(c) for c in calibrations]
    if len(cals) != len(cuts):
        raise ValueError("one calibration per cut required")

    frozen = set(frozen)
    cal_names = [f"cal_{k}" for k in range(len(cuts))]
    if not fit_calibrations:
        frozen.update(cal_names)

    start = {"a_starykh": initial.a_starykh, "t0_kelvin": initial.t0_kelvin}
    for name, cal in zip(cal_names, cals):
        start[name] = cal

    t0_bounds = t0_feasible_interval(
        [c.temperature for c in cuts], initial.negative_log_policy, initial.t0_kelvin
    )
    bounds = {"a_starykh": (0.0, None), "t0_kelvin": t0_bounds}

    weight_blocks = [1.0 / np.where(c.errors > 0, c.errors, 1.0) for c in cuts]

    def residuals(p):
        model_params = StarykhParams(
            a_starykh=p["a_starykh"],
            t0_kelvin=p["t0_kelvin"],
            j_over_kb=initial.j_over_kb,
            negative_log_policy=initial.negative_log_policy,
        )
        blocks = []
        for k, cut in enumerate(cuts):
            model = p[cal_names[k]] * chi_imag_starykh(
                cut.e_axis, cut.temperature, model_params, units
            )
            blocks.append((model - cut.values) * weight_blocks[k])
        return np.concatenate(blocks)

    return fitter.least_squares(residuals, start, frozen=frozen, bounds=bounds)
