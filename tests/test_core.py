import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import chainqfi
from chainqfi import suscept
from chainqfi.core import (
    DEFAULT_UNITS,
    ChainParameters,
    EnergyCut,
    _is_positive,
    kelvin_to_mev,
    make_grid,
)
from chainqfi.dynamics import (
    StarykhParams,
    chi_imag_from_sqw,
    chi_imag_starykh,
    scaling_dimension,
    sqw_starykh,
    t0_feasible_interval,
)
from chainqfi.errors import AxisNotMonotone, NonPositiveTemperature, ShapeMismatch
from chainqfi.qfi import compute_qfi, qfi_integrand
from chainqfi.specfun import gamma_ratio_im


class TestConversions:
    def test_zero(self):
        assert kelvin_to_mev(0.0) == 0.0

    def test_one_kelvin_is_the_constant(self):
        assert kelvin_to_mev(1.0) == DEFAULT_UNITS.boltzmann_mev_per_kelvin == 0.08617333

    def test_exchange_scale(self):
        # 3.1 * 0.08617333, hand multiplication
        assert kelvin_to_mev(3.1) == pytest.approx(0.267137323, rel=1e-12)
        assert kelvin_to_mev(3.1) == pytest.approx(0.26714, abs=1e-5)

    def test_vectorized(self):
        t = np.array([1.0, 2.0, 4.0])
        assert kelvin_to_mev(t).tolist() == [x * 0.08617333 for x in t.tolist()]

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            kelvin_to_mev(float("nan"))

    def test_units_are_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_UNITS.avogadro = 1.0

    def test_boltzmann_cgs_consistency(self):
        # k_B in erg/K derived from the meV value must match CODATA
        assert DEFAULT_UNITS.boltzmann_erg_per_kelvin == pytest.approx(1.380649e-16, rel=1e-6)


class TestChainParameters:
    def test_accepts_reference_values(self):
        p = ChainParameters(j_over_kb=3.1, g_factor=2.1, c0=2e-5, c1=-16.7e-5)
        assert p.spin == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"j_over_kb": -1.0, "g_factor": 2.0},
            {"j_over_kb": 3.1, "g_factor": 0.0},
            {"j_over_kb": 3.1, "g_factor": 2.0, "spin": 1.0},
            {"j_over_kb": 3.1, "g_factor": 2.0, "c1": 1e-5},
            {"j_over_kb": 3.1, "g_factor": 2.0, "lattice_c": -2.0},
        ],
    )
    def test_invariants_enforced(self, kwargs):
        with pytest.raises(ValueError):
            ChainParameters(**kwargs)


class TestSpectrumGrid:
    def test_valid_2x2(self):
        g = make_grid([0.4, 0.6], [0.1, 0.2], [[1.0, 2.0], [3.0, 4.0]],
                      [[0.1, 0.1], [0.1, 0.1]], 1.5)
        assert g.intensity.shape == (2, 2)
        assert g.temperature == 1.5

    def test_degenerate_axis(self):
        with pytest.raises(AxisNotMonotone):
            make_grid([0.5, 0.5], [0.1, 0.2], np.ones((2, 2)), np.zeros((2, 2)), 1.0)

    def test_decreasing_axis(self):
        with pytest.raises(AxisNotMonotone):
            make_grid([0.6, 0.4], [0.1, 0.2], np.ones((2, 2)), np.zeros((2, 2)), 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            make_grid([0.4, 0.6], [0.1, 0.2], np.ones((2, 3)), np.zeros((2, 3)), 1.0)

    def test_nonpositive_temperature(self):
        with pytest.raises(NonPositiveTemperature):
            make_grid([0.4, 0.6], [0.1, 0.2], np.ones((2, 2)), np.zeros((2, 2)), 0.0)

    def test_nan_intensity_rejected(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            make_grid([0.4, 0.6], [0.1, 0.2], bad, np.zeros((2, 2)), 1.0)

    def test_negative_errors_rejected(self):
        with pytest.raises(ValueError):
            make_grid([0.4, 0.6], [0.1, 0.2], np.ones((2, 2)), -np.ones((2, 2)), 1.0)

    def test_arrays_read_only(self):
        g = make_grid([0.4, 0.6], [0.1, 0.2], np.ones((2, 2)), np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError):
            g.intensity[0, 0] = 5.0


class TestEnergyCut:
    def test_valid(self):
        c = EnergyCut([0.1, 0.2, 0.3], [1.0, 2.0, 3.0], [0.1, 0.1, 0.1], 0.5)
        assert len(c.e_axis) == 3

    def test_axis_must_increase(self):
        with pytest.raises(AxisNotMonotone):
            EnergyCut([0.3, 0.2], [1.0, 2.0], [0.0, 0.0], 0.5)

    def test_negative_errors_rejected(self):
        with pytest.raises(ValueError):
            EnergyCut([0.1, 0.2], [1.0, 2.0], [-0.1, 0.0], 0.5)


@pytest.mark.parametrize(
    "value, positive",
    [(1, True), (2.5, True), (np.float64(5e-324), True), (0, False), (-1.0, False),
     (math.nan, False), (math.inf, False), (True, False), ("1", False), (None, False)],
)
def test_positive_scalar_rule(value, positive):
    assert _is_positive(value) == positive


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
@pytest.mark.parametrize(
    "field, make",
    [
        ("j_over_kb", lambda v: ChainParameters(j_over_kb=v, g_factor=2.0)),
        ("g_factor", lambda v: ChainParameters(j_over_kb=3.1, g_factor=v)),
        ("lattice_c", lambda v: ChainParameters(j_over_kb=3.1, g_factor=2.0, lattice_c=v)),
        ("a_starykh", lambda v: StarykhParams(a_starykh=v, t0_kelvin=1.2, j_over_kb=3.1)),
        ("t0_kelvin", lambda v: StarykhParams(a_starykh=1e-3, t0_kelvin=v, j_over_kb=3.1)),
        ("j_over_kb", lambda v: StarykhParams(a_starykh=1e-3, t0_kelvin=1.2, j_over_kb=v)),
    ],
)
def test_model_parameter_names_itself(field, make, value):
    with pytest.raises(ValueError, match=f"^{field} must be a finite number > 0, got {value}$"):
        make(value)


STARYKH = StarykhParams(a_starykh=1e-3, t0_kelvin=1.2, j_over_kb=3.1)
CHAIN = ChainParameters(j_over_kb=3.1, g_factor=2.0)

# every library entry that takes a temperature, called with the temperature t
TEMPERATURE_ENTRIES = {
    "chi_imag_starykh": lambda t: chi_imag_starykh(0.1, t, STARYKH),
    "sqw_starykh": lambda t: sqw_starykh(0.1, t, STARYKH),
    "scaling_dimension": lambda t: scaling_dimension(t, STARYKH),
    "chi_imag_from_sqw": lambda t: chi_imag_from_sqw(1.0, 0.1, t),
    "gamma_ratio_im": lambda t: gamma_ratio_im(0.2, 0.1, t),
    "qfi_integrand": lambda t: qfi_integrand(0.1, t, 1.0),
    "compute_qfi with a closure": lambda t: compute_qfi(lambda w: w, t, omega_max=1.0),
    "EnergyCut": lambda t: EnergyCut([0.1, 0.2], [1.0, 2.0], [0.0, 0.0], t),
    "SpectrumGrid": lambda t: make_grid([0.1, 0.2], [0.3], [[1.0, 2.0]], [[0.0, 0.0]], t),
    "chi_bonner_fisher": lambda t: suscept.chi_bonner_fisher([0.5, t], CHAIN),
    "chi_full": lambda t: suscept.chi_full(t, CHAIN),
    "SusceptibilityCurve": lambda t: suscept.SusceptibilityCurve([t], [1e-2], [0.0]),
    "t0_feasible_interval": lambda t: t0_feasible_interval([0.5, t], "strict", 1e3),
}


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", list(TEMPERATURE_ENTRIES))
def test_every_temperature_refusal_is_one_error(entry, t):
    with pytest.raises(NonPositiveTemperature) as info:
        TEMPERATURE_ENTRIES[entry](t)
    assert isinstance(info.value, ValueError)
    assert str(info.value) == f"temperature must be a finite number > 0, got {t}"


def test_only_core_states_the_positive_rule():
    """core raises every positive-scalar and temperature refusal; the one
    other line with the wording is the --temps message, which gives the
    entry's position."""
    lines = {
        path.name: [line.strip() for line in path.read_text().splitlines()
                    if "must be a finite number > 0" in line]
        for path in sorted(Path(chainqfi.__file__).parent.glob("*.py"))
    }
    assert len(lines.pop("core.py")) == 3
    assert {name: found for name, found in lines.items() if found} == {
        "cli.py": ['raise ValueError(f"--temps entry {k} ({token!r}) must be a finite number > 0")']
    }
    assert not hasattr(suscept, "_as_temperature_array")


def test_zero_dimensional_array_counts_as_its_value():
    assert _is_positive(np.array(0.5)) and _is_positive(np.array(3))
    assert chi_imag_from_sqw(1.0, 0.1, np.array(0.5)) == chi_imag_from_sqw(1.0, 0.1, 0.5)
    for bad in (np.array(True), np.array(-0.5), np.array(math.nan), np.array([0.5])):
        assert not _is_positive(bad)
    with pytest.raises(NonPositiveTemperature, match="got True$"):
        chi_imag_from_sqw(1.0, 0.1, np.array(True))
