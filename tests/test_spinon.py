import math

import numpy as np
import pytest

from chainqfi.core import SpectrumGrid
from chainqfi.errors import GridTooCoarse
from chainqfi.spinon import forward_powder_average, powder_to_1d, two_spinon_bounds

J_MEV = 0.26713732  # 3.1 K in meV
C = 5.32


class TestBounds:
    def test_zone_center(self):
        lower, upper = two_spinon_bounds(0.0, J_MEV, C)
        assert lower == 0.0 and upper == 0.0

    def test_zone_boundary(self):
        q = math.pi / C
        lower, upper = two_spinon_bounds(q, J_MEV, C)
        assert lower == pytest.approx(0.0, abs=1e-12)
        assert upper == pytest.approx(math.pi * J_MEV, rel=1e-12)

    def test_quarter_zone(self):
        q = math.pi / (2 * C)
        lower, upper = two_spinon_bounds(q, J_MEV, C)
        assert lower == pytest.approx(math.pi * J_MEV / 2, rel=1e-12)
        assert upper == pytest.approx(math.pi * J_MEV / math.sqrt(2.0), rel=1e-12)
        assert lower < upper

    def test_ordering_and_periodicity(self):
        q = np.linspace(0.0, 4 * math.pi / C, 500)
        lower, upper = two_spinon_bounds(q, J_MEV, C)
        assert np.all(lower <= upper + 1e-15)
        l2, u2 = two_spinon_bounds(q + 2 * math.pi / C, J_MEV, C)
        np.testing.assert_allclose(lower, l2, atol=1e-12)
        np.testing.assert_allclose(upper, u2, atol=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            two_spinon_bounds(0.5, -1.0, C)
        with pytest.raises(ValueError):
            two_spinon_bounds(0.5, J_MEV, 0.0)


def grid_from(q, e, intensity, errors=None, temperature=1.0):
    errors = np.zeros_like(intensity) if errors is None else errors
    return SpectrumGrid(q_axis=q, e_axis=e, intensity=intensity, errors=errors,
                        temperature=temperature)


class TestPowderTo1d:
    def test_constant_map(self):
        q = np.linspace(0.2, 1.4, 25)
        e = np.array([0.1, 0.2])
        grid = grid_from(q, e, np.full((2, 25), 3.3))
        out = powder_to_1d(grid)
        np.testing.assert_allclose(out.intensity, 3.3, rtol=1e-12)

    def test_quadratic_is_exact(self):
        # d(Q * Q^2)/dQ = 3 Q^2, and the stencils are exact on parabolas
        q = np.linspace(0.2, 1.4, 30)
        e = np.array([0.1])
        grid = grid_from(q, e, (q**2)[None, :])
        out = powder_to_1d(grid)
        np.testing.assert_allclose(out.intensity[0], 3.0 * q**2, rtol=1e-10)

    def test_quadratic_exact_on_nonuniform_grid(self):
        q = np.sort(np.concatenate([np.linspace(0.2, 1.4, 20), [0.33, 0.77, 1.01]]))
        grid = grid_from(q, np.array([0.1]), (q**2)[None, :])
        out = powder_to_1d(grid)
        np.testing.assert_allclose(out.intensity[0], 3.0 * q**2, rtol=1e-9)

    def test_error_propagation_interior(self):
        q = np.linspace(1.0, 2.0, 11)  # h = 0.1
        sigma = 0.5
        grid = grid_from(q, np.array([0.1]), np.ones((1, 11)), errors=np.full((1, 11), sigma))
        out = powder_to_1d(grid)
        # S_i + Q_i (S_{i+1} - S_{i-1}) / 2h: coefficients (−Q/2h, 1, Q/2h)
        i, h = 5, 0.1
        expected = sigma * math.sqrt(1.0 + 2.0 * (q[i] / (2 * h)) ** 2)
        assert out.errors[0, i] == pytest.approx(expected, rel=1e-12)

    def test_too_few_points(self):
        grid = grid_from(np.array([0.2, 0.4]), np.array([0.1]), np.ones((1, 2)))
        with pytest.raises(GridTooCoarse):
            powder_to_1d(grid)


class TestForwardPowderAverage:
    def test_constant_signal(self):
        grid = forward_powder_average(lambda q, e: 2.5, np.linspace(0.3, 1.2, 7), [0.1])
        np.testing.assert_allclose(grid.intensity, 2.5, rtol=1e-10)

    def test_quadratic_signal(self):
        q = np.linspace(0.3, 1.2, 7)
        grid = forward_powder_average(lambda qq, e: qq**2, q, [0.1])
        np.testing.assert_allclose(grid.intensity[0], q**2 / 3.0, rtol=1e-9)

    def test_narrow_peak_tail_goes_like_one_over_q(self):
        q0, width = 0.6, 0.004

        def s1d(q, e):
            return math.exp(-0.5 * ((q - q0) / width) ** 2) + math.exp(
                -0.5 * ((q + q0) / width) ** 2
            )

        weight = width * math.sqrt(2 * math.pi)  # integral of one Gaussian
        q = np.array([0.3, 0.5, 0.7, 0.9, 1.3])
        grid = forward_powder_average(s1d, q, [0.0])
        row = grid.intensity[0]
        # below the peak: essentially zero
        assert row[0] < 1e-8
        assert row[1] < 1e-8
        # above the peak: S_pwd = weight / Q
        np.testing.assert_allclose(row[2:], weight / q[2:], rtol=1e-6)

    def test_nonnegativity_preserved(self):
        q = np.linspace(0.2, 1.5, 12)
        grid = forward_powder_average(
            lambda qq, e: math.exp(-((qq - 0.6) ** 2)) , q, [0.0, 0.5]
        )
        assert np.all(grid.intensity >= 0)


def smooth_even_signal(q, e):
    center = 0.6 + 0.15 * e
    width = 0.25
    return (
        math.exp(-0.5 * ((q - center) / width) ** 2)
        + math.exp(-0.5 * ((q + center) / width) ** 2)
        + 0.1
    )


class TestRoundTrip:
    def rms_error(self, n_q):
        q = np.linspace(0.2, 2.0, n_q)
        e = np.linspace(0.0, 0.5, 6)
        powder = forward_powder_average(smooth_even_signal, q, e)
        recovered = powder_to_1d(powder)
        truth = np.array([[smooth_even_signal(qv, ev) for qv in q] for ev in e])
        return math.sqrt(np.mean((recovered.intensity - truth) ** 2) / np.mean(truth**2))

    def test_round_trip_accuracy_and_order(self):
        err_fine = self.rms_error(129)
        err_coarse = self.rms_error(65)
        assert err_fine < 0.02
        order = math.log2(err_coarse / err_fine)
        assert order >= 1.9
