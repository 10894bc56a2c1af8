"""Quantum Fisher information from the dynamic susceptibility, and the
power-law scaling fit of its temperature dependence.

F_Q(T) = (4/pi) * Integral_0^omega_max tanh(omega / 2 k_B T) chi''(omega, T) d omega

Tabulated cuts are integrated with the trapezoid rule on their native
grid (no resampling is invented); model closures go through globally
adaptive 10-point Gauss / 21-point Kronrod quadrature (``quadrature``),
with a breakpoint at 0.9 omega_max so that the tail fraction comes from
the same panels. F_Q inherits the arbitrary intensity scale of the input.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import quadrature
from .core import EnergyCut, _positive, _temperature, _temperatures, kelvin_to_mev
from .errors import GridTooCoarse, NegativeChiImagWarning, NonPositiveValue, TruncationWarning

__all__ = ["QfiPoint", "ScalingFit", "qfi_integrand", "compute_qfi", "fit_scaling"]

# fraction of the upper end of the omega interval counted as "near the cutoff"
_TAIL_FRACTION_OF_RANGE = 0.1
_TAIL_REPORT_THRESHOLD = 0.01
_FOUR_OVER_PI = 4.0 / math.pi


@dataclass(frozen=True)
class QfiPoint:
    """One F_Q(T) evaluation. ``clipped_count`` is the number of negative
    chi'' bins set to zero before integration; ``tail_fraction`` is the
    share of F_Q collected in the top 10% of the omega range (a value
    above 1% flags possible truncation)."""

    temperature: float
    f_q: float
    quadrature_error_estimate: float
    clipped_count: int = 0
    tail_fraction: float = 0.0


@dataclass(frozen=True)
class ScalingFit:
    """Power-law fit F_Q = amplitude * T^(-delta_q_over_z)."""

    delta_q_over_z: float
    delta_q: float
    amplitude: float
    covariance: np.ndarray
    r_squared: float
    z: float


def qfi_integrand(omega, t: float, chi_imag):
    """tanh(omega / 2 k_B T) * chi''; omega in meV, T in K."""
    omega_arr = np.asarray(omega, dtype=float)
    kt = kelvin_to_mev(_temperature(t))
    out = np.tanh(omega_arr / (2.0 * kt)) * np.asarray(chi_imag, dtype=float)
    return float(out) if out.ndim == 0 else out


def _warn_if_truncated(tail: float) -> None:
    if tail > _TAIL_REPORT_THRESHOLD:
        warnings.warn(
            f"{100 * tail:.1f}% of F_Q mass lies in the top 10% of the omega range; "
            "the integral may be truncated",
            TruncationWarning,
            stacklevel=4,
        )


def _qfi_tabulated(cut: EnergyCut, omega_max: float) -> QfiPoint:
    if cut.e_axis[-1] < omega_max:
        raise GridTooCoarse(
            f"energy grid ends at {cut.e_axis[-1]:g} meV, below omega_max = "
            f"{omega_max:g} meV; extend the data or lower --omega-max"
        )
    mask = (cut.e_axis >= 0.0) & (cut.e_axis <= omega_max)
    e = cut.e_axis[mask]
    chi = np.array(cut.values[mask])
    if e.size < 8:
        raise GridTooCoarse(
            f"only {e.size} energy bins in [0, {omega_max:g}] meV; need at least 8; "
            "supply a finer energy grid"
        )
    negative = chi < 0
    clipped = int(np.count_nonzero(negative))
    if clipped:
        warnings.warn(
            f"clipped {clipped} negative chi'' bins to zero",
            NegativeChiImagWarning,
            stacklevel=3,
        )
        chi[negative] = 0.0
    if e[0] > 0.0:
        # the integrand vanishes at omega = 0 for any finite chi''
        e = np.concatenate(([0.0], e))
        chi = np.concatenate(([0.0], chi))
    integrand = qfi_integrand(e, cut.temperature, chi)
    integral = float(np.trapezoid(integrand, e))
    f_q = _FOUR_OVER_PI * integral
    # error estimate: compare against the half-resolution trapezoid
    coarse_idx = np.arange(0, e.size, 2)
    if coarse_idx[-1] != e.size - 1:
        coarse_idx = np.concatenate((coarse_idx, [e.size - 1]))
    f_half = _FOUR_OVER_PI * float(np.trapezoid(integrand[coarse_idx], e[coarse_idx]))
    # the tail is the top 10% of the omega range, if it holds two bins
    top = e >= (1.0 - _TAIL_FRACTION_OF_RANGE) * omega_max
    tail = 0.0
    if integral > 0 and np.count_nonzero(top) >= 2:
        tail = float(np.trapezoid(integrand[top], e[top])) / integral
    _warn_if_truncated(tail)
    return QfiPoint(
        temperature=cut.temperature,
        f_q=f_q,
        quadrature_error_estimate=abs(f_q - f_half),
        clipped_count=clipped,
        tail_fraction=tail,
    )


def _qfi_model(chi_fn: Callable, t: float, omega_max: float) -> QfiPoint:
    chi_nodes = quadrature.array_function(chi_fn)
    cut = (1.0 - _TAIL_FRACTION_OF_RANGE) * omega_max
    result = quadrature.gauss_kronrod(
        lambda w: qfi_integrand(w, t, chi_nodes(w)),
        [0.0, cut, omega_max],
        epsrel=1e-8,
        what=f"F_Q at T = {t:g} K",
    )
    tail = math.fsum(result.values[result.lo >= cut]) / result.value if result.value > 0 else 0.0
    _warn_if_truncated(tail)
    return QfiPoint(
        temperature=t,
        f_q=_FOUR_OVER_PI * result.value,
        quadrature_error_estimate=_FOUR_OVER_PI * result.error,
        clipped_count=0,
        tail_fraction=float(tail),
    )


def compute_qfi(
    source: EnergyCut | Callable[[float], float],
    t: float | None = None,
    omega_max: float | None = None,
) -> QfiPoint:
    """Evaluate F_Q(T) from a tabulated chi'' cut or a model closure.

    For an :class:`EnergyCut` the temperature is taken from the cut (an
    explicit ``t`` must agree) and negative bins are clipped to zero with
    a warning and a count on the returned point. A callable source is
    integrated by adaptive G10/K21 quadrature to 1e-8 relative and
    requires ``t``. It is called with a 1-d array of omega nodes and
    returns chi'' there; a callable that accepts only a float (found out
    once per call) is evaluated node by node instead. If 200 panels do not
    reach the tolerance, a :class:`QuadratureLimitWarning` names T and the
    error reached. An F_Q or error estimate that is not finite (a finite
    line-shape parameter can still overflow chi'') raises
    :class:`NonPositiveValue` naming T.
    ``omega_max`` (meV) is mandatory; pi*J is the conventional choice.
    """
    _positive(omega_max, "omega_max (meV)")
    if isinstance(source, EnergyCut):
        if t is not None and abs(t - source.temperature) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(
                f"explicit t = {t} disagrees with cut temperature {source.temperature}"
            )
        point = _qfi_tabulated(source, omega_max)
    else:
        point = _qfi_model(source, _temperature(t), omega_max)
    if not (math.isfinite(point.f_q) and math.isfinite(point.quadrature_error_estimate)):
        raise NonPositiveValue(
            f"F_Q at T = {point.temperature:g} K is not finite (F_Q = {point.f_q}, "
            f"error = {point.quadrature_error_estimate}): the integrand overflows"
        )
    return point


def fit_scaling(points: Sequence[QfiPoint], z: float = 1.0) -> ScalingFit:
    """Ordinary least squares of ln F_Q on ln T.

    Returns the exponent delta_q_over_z = -slope (and delta_q = -slope*z),
    the amplitude exp(intercept), the 2x2 covariance of (slope, intercept)
    and R^2, all from sums over ln T centred on its mean. Uniform rescaling
    of all F_Q values moves only the amplitude. The first temperature that
    is not a finite number > 0 is refused with
    :class:`NonPositiveTemperature`; then the first such F_Q, with
    :class:`NonPositiveValue` naming its temperature; fewer than two
    distinct temperatures, with a ValueError naming them.
    """
    if len(points) < 3:
        raise ValueError(f"need at least 3 points for the scaling fit, got {len(points)}")
    _positive(z, "dynamic critical exponent z")
    temps = _temperatures([p.temperature for p in points])
    values = np.array([p.f_q for p in points], dtype=float)
    for p in points:
        try:
            _positive(p.f_q, f"F_Q at T = {p.temperature:g} K")
        except ValueError as exc:
            raise NonPositiveValue(f"{exc}; the log-log fit takes ln F_Q") from None

    x = np.log(temps)
    y = np.log(values)
    n = len(points)
    x_mean, y_mean = x.mean(), y.mean()
    dx, dy = x - x_mean, y - y_mean
    sxx = float(dx @ dx)
    if not sxx > 0:
        raise ValueError(
            "the scaling fit needs at least 2 distinct temperatures, got only "
            f"T = {', '.join(f'{t:g}' for t in sorted(set(temps.tolist())))} K"
        )
    slope = float(dx @ dy) / sxx
    intercept = float(y_mean - slope * x_mean)
    resid = y - (slope * x + intercept)
    rss = float(resid @ resid)
    tss = float(dy @ dy)
    sigma2 = rss / (n - 2)
    # the inverse of the normal matrix [[sum x^2, sum x], [sum x, n]]
    covariance = sigma2 * np.array(
        [[1.0 / sxx, -x_mean / sxx], [-x_mean / sxx, 1.0 / n + x_mean * x_mean / sxx]]
    )
    r_squared = 1.0 if tss == 0 else max(0.0, 1.0 - rss / tss)
    return ScalingFit(
        delta_q_over_z=-slope,
        delta_q=-slope * z,
        amplitude=math.exp(intercept),
        covariance=covariance,
        r_squared=r_squared,
        z=z,
    )
