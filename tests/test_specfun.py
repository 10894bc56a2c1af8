import cmath
import math

import numpy as np
import pytest
from scipy.special import loggamma as scipy_loggamma

from chainqfi.core import DEFAULT_UNITS
from chainqfi.errors import DomainError, NonPositiveTemperature, PoleAtNonPositiveInteger
from chainqfi.specfun import gamma_ratio_im, log_gamma_complex

KB = DEFAULT_UNITS.boltzmann_mev_per_kelvin


class TestLogGamma:
    def test_gamma_of_one(self):
        assert abs(log_gamma_complex(1.0 + 0j)) < 1e-14

    def test_gamma_of_half(self):
        expected = math.log(math.sqrt(math.pi))
        got = log_gamma_complex(0.5 + 0j)
        assert got.imag == 0.0
        assert got.real == pytest.approx(expected, rel=1e-13)

    def test_modulus_at_i(self):
        # |Gamma(iy)|^2 = pi / (y sinh(pi y)) with y = 1
        expected = math.sqrt(math.pi / math.sinh(math.pi))
        got = abs(cmath.exp(log_gamma_complex(1j)))
        assert got == pytest.approx(expected, rel=1e-10)
        assert got == pytest.approx(0.521564, abs=1e-6)

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
    def test_poles_rejected(self, z):
        with pytest.raises(PoleAtNonPositiveInteger):
            log_gamma_complex(complex(z))

    def test_reflection_identity(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            z = complex(rng.uniform(0.01, 0.99), rng.uniform(-20, 20))
            lhs = (
                cmath.exp(log_gamma_complex(z))
                * cmath.exp(log_gamma_complex(1.0 - z))
                * cmath.sin(math.pi * z)
                / math.pi
            )
            assert abs(lhs - 1.0) < 1e-10

    def test_recurrence_identity(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            z = complex(rng.uniform(0.5, 30.0), rng.uniform(-20, 20))
            diff = log_gamma_complex(z + 1) - log_gamma_complex(z) - cmath.log(z)
            assert abs(diff) < 1e-11

    def test_against_independent_implementation(self):
        # right half-plane: principal branches must agree to 1e-12 (scaled)
        rng = np.random.default_rng(7)
        for _ in range(300):
            r = rng.uniform(0.6, 50.0)
            phi = rng.uniform(-math.pi / 2 + 0.02, math.pi / 2 - 0.02)
            z = r * cmath.exp(1j * phi)
            ours = log_gamma_complex(z)
            ref = complex(scipy_loggamma(z))
            assert abs(ours - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_left_plane_values_off_axis(self):
        # off the negative real axis the exponentiated values must agree
        rng = np.random.default_rng(11)
        for _ in range(200):
            z = complex(rng.uniform(-20.0, 0.45), rng.choice([-1, 1]) * rng.uniform(0.05, 20.0))
            ours = cmath.exp(log_gamma_complex(z))
            ref = cmath.exp(complex(scipy_loggamma(z)))
            assert abs(ours - ref) <= 1e-11 * abs(ref)


def _ratio_im_reference(delta, x):
    """Independent evaluation through scipy's log-gamma."""
    val = cmath.exp(
        2 * scipy_loggamma(complex(delta, -x)) - 2 * scipy_loggamma(complex(1 - delta, -x))
    )
    return val.imag


class TestGammaRatioIm:
    def test_zero_at_omega_zero(self):
        assert gamma_ratio_im(0.2, 0.0, 1.0) == 0.0

    def test_odd_in_omega(self):
        f_plus = gamma_ratio_im(0.2, 0.1, 1.0)
        f_minus = gamma_ratio_im(0.2, -0.1, 1.0)
        assert f_minus == pytest.approx(-f_plus, rel=1e-12)

    def test_dual_implementation_value(self):
        # x = 0.5 corresponds to omega = 0.5 * 4 pi k_B T
        t = 1.0
        omega = 0.5 * 4 * math.pi * KB * t
        ours = gamma_ratio_im(0.2, omega, t)
        ref = _ratio_im_reference(0.2, 0.5)
        assert ours == pytest.approx(ref, rel=1e-10)

    def test_dual_implementation_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            delta = rng.uniform(0.02, 0.48)
            x = rng.uniform(-30.0, 30.0)
            t = rng.uniform(0.05, 10.0)
            omega = x * 4 * math.pi * KB * t
            ours = gamma_ratio_im(delta, omega, t)
            ref = _ratio_im_reference(delta, x)
            assert ours == pytest.approx(ref, rel=1e-10, abs=1e-300)

    def test_large_x_stays_finite(self):
        t = 0.01
        omega = 1e3 * 4 * math.pi * KB * t
        value = gamma_ratio_im(0.21, omega, t)
        assert math.isfinite(value)
        # ratio decays like x^(4 delta - 2) for large x
        assert abs(value) < 1e-2

    def test_continuous_at_zero(self):
        small = gamma_ratio_im(0.2, 1e-12, 1.0)
        assert abs(small) < 1e-9

    @pytest.mark.parametrize("delta", [0.0, 0.5, -0.1, 0.7])
    def test_delta_domain(self, delta):
        with pytest.raises(DomainError):
            gamma_ratio_im(delta, 0.1, 1.0)

    def test_temperature_domain(self):
        with pytest.raises(NonPositiveTemperature):
            gamma_ratio_im(0.2, 0.1, 0.0)


class TestArrayKernelOracle:
    """The array kernel against mpmath at 30 digits."""

    X = np.concatenate([np.logspace(-3, 3, 25), -np.logspace(-3, 3, 25)])

    @pytest.mark.parametrize("delta", [0.01, 0.1, 0.2, 0.249])
    def test_against_mpmath(self, delta):
        mpmath = pytest.importorskip("mpmath")
        t = 0.7
        omega = self.X * (4 * math.pi * KB * t)
        got = gamma_ratio_im(delta, omega, t)
        with mpmath.workdps(30):
            d = mpmath.mpf(delta)
            for w, value in zip(omega.tolist(), got.tolist()):
                x = mpmath.mpf(w) / (4 * mpmath.pi * mpmath.mpf(KB) * mpmath.mpf(t))
                ref = mpmath.exp(
                    2 * (mpmath.loggamma(d - 1j * x) - mpmath.loggamma(1 - d - 1j * x))
                ).imag
                assert abs(value - float(ref)) <= 1e-11 * abs(float(ref))

    def test_scalar_equals_array_element_bitwise(self):
        omega = self.X * (4 * math.pi * KB * 0.3)
        got = gamma_ratio_im(0.13, omega, 0.3)
        assert [gamma_ratio_im(0.13, w, 0.3) for w in omega.tolist()] == got.tolist()
        assert isinstance(gamma_ratio_im(0.13, 0.5, 0.3), float)

    def test_array_shape_kept(self):
        omega = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        assert gamma_ratio_im(0.2, omega, 1.0).shape == (3, 4)
