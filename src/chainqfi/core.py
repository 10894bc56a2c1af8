"""Units, physical constants, and the shared immutable domain types.

Two fixed unit conventions are used throughout: energies in meV with
temperatures in K (spectroscopy side), and CGS-emu for molar
susceptibility. All conversions happen explicitly at formula boundaries.
The constants are fixed in ``DEFAULT_UNITS``, which no formula takes as a
parameter. ``_write_lines`` writes and hashes every output file.

``_sha256`` computes every SHA-256 of the package: CPython's built-in
implementation (``_sha2`` from Python 3.12, ``_sha256`` before), with
``hashlib`` only for a Python built without it. ``hashlib`` maps OpenSSL's
``libcrypto`` into the process, 3.35 MB of peak RSS, so no command loads
OpenSSL: ``synth`` draws its noise without ``numpy.random``, whose
``secrets`` import would load it through ``hmac``. The built-in hash ran
at 264 MB/s against OpenSSL's 1.39 GB/s on a 2-core Xeon with SHA-NI:
48 against 9 ms per 12 MiB, about what one ``reduce_8t`` benchmark pass
hashes.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

from .errors import (
    AxisNotMonotone,
    NonPositiveTemperature,
    ShapeMismatch,
)

__all__ = [
    "UnitSystem",
    "DEFAULT_UNITS",
    "ChainParameters",
    "SpectrumGrid",
    "EnergyCut",
    "kelvin_to_mev",
]


@dataclass(frozen=True)
class UnitSystem:
    """Physical constants in the two conventions used by the package.

    ``boltzmann_mev_per_kelvin`` converts temperature to energy on the
    spectroscopy side; ``bohr_magneton`` (erg/G) and ``avogadro`` feed the
    CGS-emu molar susceptibility formulas. The constants are class
    attributes, not fields: no constructor takes them, and the frozen
    dataclass refuses any assignment to its one instance.
    """

    boltzmann_mev_per_kelvin = 0.08617333
    bohr_magneton = 9.2740100783e-21
    avogadro = 6.02214076e23
    erg_per_mev = 1.602176634e-15

    @property
    def boltzmann_erg_per_kelvin(self) -> float:
        return self.boltzmann_mev_per_kelvin * self.erg_per_mev


DEFAULT_UNITS = UnitSystem()


def kelvin_to_mev(t):
    """Convert temperature (K) to the equivalent thermal energy (meV)."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("temperature must be finite")
    out = t * DEFAULT_UNITS.boltzmann_mev_per_kelvin
    return float(out) if out.ndim == 0 else out


def _write_lines(path, lines) -> str:
    """Write each string of ``lines`` in turn: UTF-8, newlines as given.
    Returns the SHA-256 of the bytes written."""
    h = _sha256()
    with open(path, "wb") as fh:
        for line in lines:
            data = line.encode("utf-8")
            h.update(data)
            fh.write(data)
    return h.hexdigest()


def _is_number(value) -> bool:
    """A finite real number, not a bool; a 0-d array stands for its one value."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value.item()
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _is_positive(value) -> bool:
    """A finite real number > 0 (not a bool): the rule for every positive scalar."""
    return _is_number(value) and value > 0


def _positive(value, name: str):
    """``value`` itself if it is a finite number > 0, else a ValueError naming ``name``."""
    if not _is_positive(value):
        raise ValueError(f"{name} must be a finite number > 0, got {value}")
    return value


def _temperature(t):
    """``t`` itself if it is a finite number > 0, else NonPositiveTemperature."""
    if not _is_positive(t):
        raise NonPositiveTemperature(f"temperature must be a finite number > 0, got {t}")
    return t


def _temperatures(t) -> np.ndarray:
    """``t`` as a float array if every entry is a finite number > 0, else
    NonPositiveTemperature naming the first entry that is not."""
    arr = np.asarray(t, dtype=float)
    bad = ~(np.isfinite(arr) & (arr > 0))
    if bad.any():
        raise NonPositiveTemperature(f"temperature must be a finite number > 0, got {arr[bad][0]}")
    return arr


def _require_positive(obj, *names) -> None:
    """Raise ValueError naming the first of the fields ``names`` not a finite number > 0."""
    for name in names:
        _positive(getattr(obj, name), name)


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _freeze(obj, *names) -> None:
    """Replace the named fields of a frozen dataclass with read-only float copies."""
    for name in names:
        object.__setattr__(obj, name, _frozen_array(getattr(obj, name)))


def _require_strictly_increasing(axis: np.ndarray, name: str) -> None:
    """Refuse an axis that is not a non-empty 1-d array of finite, strictly
    increasing entries; a non-finite entry is named with its index."""
    if axis.ndim != 1 or axis.size < 1:
        raise AxisNotMonotone(f"{name} must be a non-empty 1-d array")
    bad = np.flatnonzero(~np.isfinite(axis))
    if bad.size:
        raise AxisNotMonotone(f"{name} must be finite, got {axis[bad[0]]} at entry {bad[0]}")
    if axis.size > 1 and not np.all(np.diff(axis) > 0):
        raise AxisNotMonotone(f"{name} must be strictly increasing")


def _check_record(obj, axes: tuple[str, ...], values: str) -> None:
    """Freeze a measured record and check it: each of ``axes`` strictly
    increasing, ``values`` and ``errors`` one dimension per axis in that
    order, no NaN value, errors >= 0, and the temperature a finite number > 0."""
    _freeze(obj, *axes, values, "errors")
    for name in axes:
        _require_strictly_increasing(getattr(obj, name), name)
    expected = tuple(getattr(obj, name).size for name in axes)
    for name in (values, "errors"):
        shape = getattr(obj, name).shape
        if shape != expected:
            raise ShapeMismatch(f"{name} shape {shape} does not match {axes} = {expected}")
    if np.any(np.isnan(getattr(obj, values))):
        raise ValueError(f"{values} must not contain NaN")
    if np.any(obj.errors < 0) or np.any(np.isnan(obj.errors)):
        raise ValueError("errors must be nonnegative")
    object.__setattr__(obj, "temperature", float(_temperature(obj.temperature)))


@dataclass(frozen=True)
class ChainParameters:
    """Model parameters of the uniform antiferromagnetic spin-1/2 chain.

    ``j_over_kb`` is the exchange coupling expressed as a temperature (K),
    positive for antiferromagnetic coupling. ``c0`` is a lumped impurity
    constant and ``c1`` the diamagnetic correction, both in emu/mole.
    ``lattice_c`` is the chain-axis lattice parameter in Angstrom, optional
    because susceptibility work does not need it. ``spin`` is 1/2: a field
    that reports record, which no constructor takes.
    """

    j_over_kb: float
    g_factor: float
    spin: float = field(default=0.5, init=False)
    c0: float = 0.0
    c1: float = 0.0
    lattice_c: float | None = None

    def __post_init__(self):
        _require_positive(self, "j_over_kb", "g_factor")
        if not _is_number(self.c0):
            raise ValueError(f"c0 must be a finite number, got {self.c0}")
        if not (_is_number(self.c1) and self.c1 <= 0):
            raise ValueError(f"c1 must be a finite number <= 0, got {self.c1}")
        if self.lattice_c is not None:
            _require_positive(self, "lattice_c")


@dataclass(frozen=True)
class SpectrumGrid:
    """2-d intensity map over momentum transfer Q and energy transfer E.

    ``intensity`` and ``errors`` have shape (len(e_axis), len(q_axis)):
    one row per energy. All arrays are read-only after construction.
    """

    q_axis: np.ndarray
    e_axis: np.ndarray
    intensity: np.ndarray
    errors: np.ndarray
    temperature: float

    def __post_init__(self):
        _check_record(self, ("e_axis", "q_axis"), "intensity")


@dataclass(frozen=True)
class EnergyCut:
    """1-d intensity versus energy at a fixed temperature."""

    e_axis: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    temperature: float

    def __post_init__(self):
        _check_record(self, ("e_axis",), "values")
