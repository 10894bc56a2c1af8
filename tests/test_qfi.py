import math

import numpy as np
import pytest

from chainqfi.core import DEFAULT_UNITS, EnergyCut
from chainqfi.errors import (
    GridTooCoarse,
    NegativeChiImagWarning,
    NonPositiveValue,
    TruncationWarning,
)
from chainqfi.qfi import QfiPoint, compute_qfi, fit_scaling, qfi_integrand

KB = DEFAULT_UNITS.boltzmann_mev_per_kelvin


class TestIntegrand:
    def test_zero_at_zero(self):
        assert qfi_integrand(0.0, 1.0, 123.4) == 0.0

    def test_saturation(self):
        t = 1.0
        assert qfi_integrand(50.0 * KB * t, t, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_half_weight_point(self):
        t = 0.7
        omega = 2.0 * KB * t * math.atanh(0.5)
        assert qfi_integrand(omega, t, 2.0) == pytest.approx(1.0, rel=1e-12)


def box_cut(a, b, t, step=2e-5, height=1.0, e_max=0.84):
    e = np.arange(0.0, e_max + step / 2, step)
    values = np.where((e >= a) & (e <= b), height, 0.0)
    return EnergyCut(e_axis=e, values=values, errors=np.zeros_like(e), temperature=t)


def box_qfi_closed_form(a, b, t, height=1.0):
    """(4/pi) * 2 k_B T [ln cosh(w / 2 k_B T)]_a^b, the exact antiderivative."""
    kt2 = 2.0 * KB * t
    return (4.0 / math.pi) * height * kt2 * (
        math.log(math.cosh(b / kt2)) - math.log(math.cosh(a / kt2))
    )


class TestComputeQfiTabulated:
    def test_zero_signal(self):
        e = np.linspace(0.0, 0.8, 40)
        cut = EnergyCut(e, np.zeros_like(e), np.zeros_like(e), 1.0)
        assert compute_qfi(cut, omega_max=0.8).f_q == 0.0

    def test_box_closed_form(self):
        point = compute_qfi(box_cut(0.2, 0.6, 1.0), omega_max=0.84)
        assert point.f_q == pytest.approx(box_qfi_closed_form(0.2, 0.6, 1.0), rel=1e-3)

    def test_box_closed_form_cold(self):
        point = compute_qfi(box_cut(0.2, 0.6, 0.1), omega_max=0.84)
        assert point.f_q == pytest.approx(box_qfi_closed_form(0.2, 0.6, 0.1), rel=1e-3)

    def test_narrow_gaussian_limit(self):
        t, omega0, width = 1.0, 0.5, 0.004
        e = np.arange(0.0, 0.85, 1e-4)
        values = np.exp(-0.5 * ((e - omega0) / width) ** 2) / (width * math.sqrt(2 * math.pi))
        cut = EnergyCut(e, values, np.zeros_like(e), t)
        expected = (4.0 / math.pi) * math.tanh(omega0 / (2 * KB * t))
        assert compute_qfi(cut, omega_max=0.85 - 1e-4).f_q == pytest.approx(expected, rel=1e-3)

    def test_linearity(self):
        cut = box_cut(0.2, 0.6, 1.0, step=1e-3)
        scaled = EnergyCut(cut.e_axis, 3.7 * cut.values, cut.errors, cut.temperature)
        assert compute_qfi(scaled, omega_max=0.84).f_q == pytest.approx(
            3.7 * compute_qfi(cut, omega_max=0.84).f_q, rel=1e-12
        )

    def test_monotone_in_temperature_on_box_family(self):
        values = [
            compute_qfi(box_cut(0.2, 0.6, t, step=1e-3), omega_max=0.84).f_q
            for t in (0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_grid_halving_within_error_estimate(self):
        t = 1.0
        e = np.linspace(0.0, 0.8, 321)
        values = np.exp(-((e - 0.3) ** 2) / 0.02)
        fine = EnergyCut(e, values, np.zeros_like(e), t)
        half = EnergyCut(e[::2], values[::2], np.zeros_like(e[::2]), t)
        p_fine = compute_qfi(fine, omega_max=0.8)
        p_half = compute_qfi(half, omega_max=0.8)
        assert abs(p_fine.f_q - p_half.f_q) <= p_fine.quadrature_error_estimate * (1 + 1e-9)

    def test_grid_too_coarse(self):
        e = np.linspace(0.0, 0.8, 6)
        cut = EnergyCut(e, np.ones_like(e), np.zeros_like(e), 1.0)
        with pytest.raises(GridTooCoarse):
            compute_qfi(cut, omega_max=0.8)

    def test_grid_must_reach_omega_max(self):
        e = np.linspace(0.0, 0.5, 40)
        cut = EnergyCut(e, np.ones_like(e), np.zeros_like(e), 1.0)
        with pytest.raises(GridTooCoarse):
            compute_qfi(cut, omega_max=0.8)

    def test_negative_bins_clipped_with_warning(self):
        e = np.linspace(0.0, 0.8, 41)
        values = np.ones_like(e)
        values[5:8] = -0.2
        cut = EnergyCut(e, values, np.zeros_like(e), 1.0)
        with pytest.warns(NegativeChiImagWarning):
            point = compute_qfi(cut, omega_max=0.8)
        assert point.clipped_count == 3
        assert point.f_q >= 0.0

    def test_temperature_mismatch_rejected(self):
        cut = box_cut(0.2, 0.6, 1.0, step=1e-3)
        with pytest.raises(ValueError):
            compute_qfi(cut, t=2.0, omega_max=0.8)


class TestComputeQfiModel:
    def test_gaussian_model_matches_closed_form(self):
        t, omega0, width = 1.0, 0.5, 0.004

        def chi(w):
            return math.exp(-0.5 * ((w - omega0) / width) ** 2) / (
                width * math.sqrt(2 * math.pi)
            )

        expected = (4.0 / math.pi) * math.tanh(omega0 / (2 * KB * t))
        point = compute_qfi(chi, t=t, omega_max=0.9)
        assert point.f_q == pytest.approx(expected, rel=1e-3)

    def test_model_agrees_with_tabulated(self):
        t = 0.7

        def chi(w):
            return w * math.exp(-3.0 * w)

        e = np.linspace(0.0, 0.8, 8001)
        cut = EnergyCut(e, e * np.exp(-3.0 * e), np.zeros_like(e), t)
        model = compute_qfi(chi, t=t, omega_max=0.8)
        table = compute_qfi(cut, omega_max=0.8)
        assert model.f_q == pytest.approx(table.f_q, rel=1e-5)

    def test_truncation_warning(self):
        def chi(w):
            return math.exp(-0.5 * ((w - 0.78) / 0.01) ** 2)

        with pytest.warns(TruncationWarning):
            point = compute_qfi(chi, t=1.0, omega_max=0.8)
        assert point.tail_fraction > 0.01

    def test_model_requires_temperature(self):
        with pytest.raises(ValueError):
            compute_qfi(lambda w: w, omega_max=0.8)

    def test_omega_max_required(self):
        with pytest.raises(ValueError):
            compute_qfi(lambda w: w, t=1.0)


def power_law_points(amplitude, exponent, temps):
    return [
        QfiPoint(temperature=t, f_q=amplitude * t ** (-exponent), quadrature_error_estimate=0.0)
        for t in temps
    ]


class TestFitScaling:
    def test_exact_power_law(self):
        points = power_law_points(2.3, 0.55, [0.1, 0.5, 2.0, 7.0])
        fit = fit_scaling(points, z=1.0)
        assert fit.delta_q_over_z == pytest.approx(0.55, rel=1e-12)
        assert fit.amplitude == pytest.approx(2.3, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_z_scales_delta_q(self):
        points = power_law_points(1.0, 0.55, [0.1, 1.0, 10.0])
        fit = fit_scaling(points, z=2.0)
        assert fit.delta_q == pytest.approx(1.1, rel=1e-12)
        assert fit.delta_q_over_z == pytest.approx(0.55, rel=1e-12)

    def test_two_points_rejected(self):
        with pytest.raises(ValueError):
            fit_scaling(power_law_points(1.0, 0.5, [0.1, 1.0]))

    def test_nonpositive_value_rejected(self):
        points = power_law_points(1.0, 0.5, [0.1, 1.0, 10.0])
        bad = points[:2] + [QfiPoint(temperature=5.0, f_q=0.0, quadrature_error_estimate=0.0)]
        with pytest.raises(NonPositiveValue):
            fit_scaling(bad)

    def test_rescaling_moves_only_amplitude(self):
        temps = [0.04, 0.5, 3.0, 6.7]
        base = fit_scaling(power_law_points(1.0, 0.61, temps))
        scaled_points = [
            QfiPoint(p.temperature, 7.0 * p.f_q, 0.0)
            for p in power_law_points(1.0, 0.61, temps)
        ]
        scaled = fit_scaling(scaled_points)
        assert scaled.delta_q_over_z == pytest.approx(base.delta_q_over_z, rel=1e-12)
        assert scaled.amplitude == pytest.approx(7.0 * base.amplitude, rel=1e-10)


@pytest.mark.parametrize("f_q", [math.nan, math.inf, -1.0])
def test_fit_scaling_names_the_first_bad_temperature(f_q):
    points = power_law_points(1.0, 0.5, [0.1, 1.0, 10.0])
    points[1] = QfiPoint(temperature=1.0, f_q=f_q, quadrature_error_estimate=0.0)
    with pytest.raises(NonPositiveValue) as exc:
        fit_scaling(points)
    assert str(exc.value) == (
        f"F_Q at T = 1 K must be a finite number > 0, got {f_q}; the log-log fit takes ln F_Q"
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_compute_qfi_refuses_an_overflowing_model():
    with pytest.raises(NonPositiveValue) as exc:
        compute_qfi(lambda w: np.full_like(w, 1e308), t=0.3, omega_max=5.0)
    assert str(exc.value).startswith("F_Q at T = 0.3 K is not finite")
