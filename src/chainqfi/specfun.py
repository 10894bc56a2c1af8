"""Complex log-gamma and the gamma-ratio imaginary part.

The finite-temperature line shape needs Im(Gamma^2(d - ix) / Gamma^2(1 - d - ix))
evaluated stably for x up to ~1e3. The squared gamma factors overflow or
underflow individually at large |x|, so the ratio is formed in log space
and exponentiated once. ``gamma_ratio_im`` takes scalars or numpy arrays.
"""
from __future__ import annotations

import math

import numpy as np

from .core import DEFAULT_UNITS, UnitSystem
from .errors import DomainError, NonPositiveTemperature, PoleAtNonPositiveInteger

__all__ = ["log_gamma_complex", "gamma_ratio_im"]

# Lanczos approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)


def _log_pi_over_sin(z):
    """log(pi / sin(pi z)) for Im z <= 0, the numerator of the reflection
    formula. With v = pi z, sin v = e^{iv} (1 - e^{-2iv}) / (2i) and
    |e^{-2iv}| = e^{2 Im v} <= 1, so nothing overflows. The branch may
    differ from the principal one by a multiple of 2*pi*i."""
    v = math.pi * z
    return _LOG_PI - (1j * v + np.log((1.0 - np.exp(-2j * v)) / 2j))


def _lanczos(z):
    """log Gamma(z) for Re z >= 1/2 (complex scalar or array)."""
    w = z - 1.0
    series = _LANCZOS_COEFFS[0]
    for i, coeff in enumerate(_LANCZOS_COEFFS[1:], start=1):
        series = series + coeff / (w + i)
    t = w + (_LANCZOS_G + 0.5)
    return _HALF_LOG_TWO_PI + (w + 0.5) * np.log(t) - t + np.log(series)


def log_gamma_complex(z: complex) -> complex:
    """Principal-branch log Gamma(z) via the Lanczos approximation.

    For Re z < 0.5 the reflection formula is used; the result there may
    differ from the principal branch by a multiple of 2*pi*i, which is
    immaterial once exponentiated (the only use made of that region).
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise PoleAtNonPositiveInteger(f"log-gamma pole at z = {z.real:g}")
    if z.real >= 0.5:
        return complex(_lanczos(z))
    if z.imag > 0.0:
        # log Gamma(conj z) = conj log Gamma(z) keeps the reflection at Im z <= 0
        return log_gamma_complex(z.conjugate()).conjugate()
    # reflection: log Gamma(z) = log(pi / sin(pi z)) - log Gamma(1 - z)
    return complex(_log_pi_over_sin(z) - _lanczos(1.0 - z))


def gamma_ratio_im(
    delta: float,
    omega,
    temperature: float,
    units: UnitSystem = DEFAULT_UNITS,
):
    """Im of Gamma^2(delta - ix) / Gamma^2(1 - delta - ix), x = omega / (4 pi k_B T).

    ``omega`` is in meV (scalar or array; a scalar gives a float),
    ``temperature`` in K. Odd in omega, bitwise, and exactly zero at
    omega = 0. Requires 0 < delta < 1/2 so both gamma arguments stay off
    the poles for every real x.

    Reflection and conjugate symmetry leave one Lanczos evaluation per
    point: with y = |x|,

        log ratio = 2 [log pi - log sin(pi (delta - iy)) - 2 Re log Gamma(1 - delta - iy)],

    and the result for x < 0 is minus the one for |x|.
    """
    if not (0.0 < delta < 0.5):
        raise DomainError(f"delta must lie in (0, 1/2), got {delta}")
    if not (temperature > 0):
        raise NonPositiveTemperature(f"temperature must be positive, got {temperature}")
    omega_arr = np.asarray(omega, dtype=float)
    # 1-d throughout: numpy scalar arithmetic rounds some complex operations
    # differently from the array loops, and a scalar call must equal the
    # matching element of an array call
    x = omega_arr.reshape(-1) / (4.0 * math.pi * units.boltzmann_mev_per_kelvin * temperature)
    y = np.abs(x)
    log_ratio = 2.0 * (
        _log_pi_over_sin(delta - 1j * y) - 2.0 * _lanczos((1.0 - delta) - 1j * y).real
    )
    out = np.where(x == 0.0, 0.0, np.sign(x) * np.exp(log_ratio).imag)
    return float(out[0]) if omega_arr.ndim == 0 else out.reshape(omega_arr.shape)
