import math

import numpy as np
import pytest

from chainqfi.core import DEFAULT_UNITS, kelvin_to_mev
from chainqfi.dynamics import StarykhParams, chi_imag_starykh
from chainqfi.errors import QuadratureLimitWarning
from chainqfi.qfi import compute_qfi
from chainqfi.quadrature import _panels, array_function, gauss_kronrod

KB = DEFAULT_UNITS.boltzmann_mev_per_kelvin


def square_wave(x):
    return np.floor(x * 1e4) % 2.0


class TestRule:
    @pytest.mark.parametrize("degree", range(32))
    def test_polynomials_exact_on_one_panel(self, degree):
        a, b = -0.3, 1.7
        values, _, _ = _panels(lambda x: x**degree, np.array([a]), np.array([b]))
        exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
        assert values[0] == pytest.approx(exact, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("center", [0.013, 0.25, 0.4, 0.6, 0.8, 1.05, 1.287])
    def test_narrow_gaussian_found(self, center):
        # Under an absolute tolerance the first K21 estimate of a peak that
        # falls between nodes is ~1e-29; only the first-estimate rule makes
        # the integrator look further.
        width, b = 0.004, 1.3

        def peak(x):
            return np.exp(-0.5 * ((x - center) / width) ** 2)

        got = gauss_kronrod(peak, [0.0, b], epsrel=1e-10, epsabs=1e-12)
        exact = width * math.sqrt(2 * math.pi) * 0.5 * (
            math.erf(center / (width * math.sqrt(2)))
            + math.erf((b - center) / (width * math.sqrt(2)))
        )
        assert abs(got.value - exact) <= max(got.error, 1e-10 * exact)
        assert got.value == pytest.approx(exact, rel=1e-9)

    def test_breakpoints_bound_panels(self):
        got = gauss_kronrod(np.cos, [0.0, 0.7, 2.0])
        assert got.value == pytest.approx(math.sin(2.0), rel=1e-12)
        assert np.isclose(got.lo, 0.7).any()
        tail = math.fsum(got.values[got.lo >= 0.7])
        assert tail == pytest.approx(math.sin(2.0) - math.sin(0.7), rel=1e-12)

    def test_zero_integrand(self):
        got = gauss_kronrod(np.zeros_like, [0.0, 1.0])
        assert got.value == 0.0 and got.error == 0.0

    def test_panel_limit_warns(self):
        with pytest.warns(QuadratureLimitWarning, match="square wave: panel limit 200"):
            got = gauss_kronrod(square_wave, [0.0, 1.0], what="square wave")
        assert got.lo.size == 200


class TestArrayFunction:
    def test_array_callable_gets_whole_batches(self):
        calls = []

        def f(x):
            calls.append(np.size(x))
            return x * x

        got = gauss_kronrod(array_function(f), [0.0, 1.0])
        assert got.value == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert calls == [21]  # the call that detects array support is the batch itself

    def test_scalar_only_callable_gets_floats(self):
        seen = set()

        def f(x):
            seen.add(type(x))
            return math.exp(x)

        got = gauss_kronrod(array_function(f), [0.0, 1.0])
        assert got.value == pytest.approx(math.e - 1.0, rel=1e-14)
        assert float in seen

    def test_constant_callable(self):
        got = gauss_kronrod(array_function(lambda x: 2.5), [0.0, 2.0])
        assert got.value == pytest.approx(5.0, rel=1e-14)

    def test_extra_arguments_passed(self):
        f = array_function(lambda q, e: q + e)
        np.testing.assert_array_equal(f(np.array([1.0, 2.0]), 0.5), [1.5, 2.5])


class TestModelQfi:
    J = 3.1
    PARAMS = StarykhParams(
        a_starykh=0.00065, t0_kelvin=math.pi * 3.1 / 8.0, j_over_kb=3.1,
        negative_log_policy="absolute_value",
    )

    def mpmath_fq(self, t, omega_max):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            temp = mpmath.mpf(t)
            kt = mpmath.mpf(KB) * temp
            big_l = abs(mpmath.log(mpmath.mpf(self.PARAMS.t0_kelvin) / temp))
            d = (1 - 1 / (2 * big_l)) / 4
            pref = (
                mpmath.mpf(self.PARAMS.a_starykh) / (mpmath.pi * temp)
                * mpmath.power(2, 2 * d - mpmath.mpf(3) / 2)
                * mpmath.sin(2 * mpmath.pi * d) * mpmath.sqrt(big_l)
                * mpmath.gamma(1 - 2 * d) ** 2
            )

            def integrand(w):
                x = w / (4 * mpmath.pi * kt)
                ratio = mpmath.exp(
                    2 * (mpmath.loggamma(d - 1j * x) - mpmath.loggamma(1 - d - 1j * x))
                )
                return mpmath.tanh(w / (2 * kt)) * pref * ratio.imag

            w_max = mpmath.mpf(omega_max)
            knots = [mpmath.mpf(0)] + [kt * 4**k for k in range(12) if kt * 4**k < w_max]
            return float(4 / mpmath.pi * mpmath.quad(integrand, knots + [w_max]))

    @pytest.mark.filterwarnings("ignore::chainqfi.errors.TruncationWarning")
    @pytest.mark.parametrize("t", [0.02, 0.5, 3.0, 8.0])
    def test_error_estimate_bounds_true_error(self, t):
        omega_max = math.pi * kelvin_to_mev(self.J)
        point = compute_qfi(
            lambda w: chi_imag_starykh(w, t, self.PARAMS), t=t, omega_max=omega_max
        )
        reference = self.mpmath_fq(t, omega_max)
        assert abs(point.f_q - reference) <= point.quadrature_error_estimate
        assert abs(point.f_q - reference) <= 1e-8 * reference

    @pytest.mark.filterwarnings("ignore::chainqfi.errors.TruncationWarning")
    def test_panel_limit_warning_names_temperature(self):
        with pytest.warns(QuadratureLimitWarning, match=r"F_Q at T = 1\.5 K: panel limit 200"):
            compute_qfi(square_wave, t=1.5, omega_max=0.8)
