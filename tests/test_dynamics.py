import cmath
import math

import numpy as np
import pytest
from scipy.special import loggamma as scipy_loggamma

from chainqfi.core import DEFAULT_UNITS, EnergyCut, kelvin_to_mev
from chainqfi.dynamics import (
    StarykhParams,
    chi_imag_from_sqw,
    chi_imag_starykh,
    fit_starykh,
    scaling_dimension,
    sqw_starykh,
    t0_feasible_interval,
)
from chainqfi.errors import BoseFactorPole, CutoffDomainError, NonPositiveTemperature

KB = DEFAULT_UNITS.boltzmann_mev_per_kelvin
J = 3.1
T0 = math.pi * J / 8.0
STRICT = StarykhParams(a_starykh=0.00065, t0_kelvin=T0, j_over_kb=J)
ABS = StarykhParams(
    a_starykh=0.00065, t0_kelvin=T0, j_over_kb=J, negative_log_policy="absolute_value"
)


class TestScalingDimension:
    def test_log_equal_one(self):
        params = StarykhParams(a_starykh=1.0, t0_kelvin=math.e, j_over_kb=J)
        assert scaling_dimension(1.0, params) == pytest.approx(0.125, rel=1e-12)

    def test_low_temperature_limit(self):
        assert scaling_dimension(T0 * 1e-9, STRICT) == pytest.approx(0.25, abs=2e-2)
        assert scaling_dimension(T0 * 1e-30, STRICT) == pytest.approx(0.25, abs=4e-3)

    def test_singular_at_cutoff_under_both_policies(self):
        for params in (STRICT, ABS):
            with pytest.raises(CutoffDomainError):
                scaling_dimension(T0, params)

    def test_strict_domain_boundary(self):
        edge = T0 * math.exp(-0.5)
        assert scaling_dimension(0.99 * edge, STRICT) > 0.0
        with pytest.raises(CutoffDomainError):
            scaling_dimension(1.01 * edge, STRICT)

    def test_absolute_value_policy_admits_high_temperature(self):
        with pytest.raises(CutoffDomainError):
            scaling_dimension(3.0, STRICT)
        delta = scaling_dimension(3.0, ABS)
        assert 0.0 < delta < 0.25

    def test_monotone_in_decreasing_temperature(self):
        temps = np.geomspace(0.7, 0.001, 40)
        deltas = [scaling_dimension(t, STRICT) for t in temps]
        assert np.all(np.diff(deltas) > 0)

    def test_nonpositive_temperature(self):
        with pytest.raises(NonPositiveTemperature):
            scaling_dimension(-1.0, STRICT)


class TestStructureFactor:
    def test_positive_and_finite_over_measured_window(self):
        omegas = np.linspace(1e-4, 1.0, 300)
        values = sqw_starykh(omegas, 0.04, STRICT)
        assert np.all(np.isfinite(values))
        assert np.all(values > 0)

    def test_bose_pole_rejected(self):
        with pytest.raises(BoseFactorPole):
            sqw_starykh(0.0, 0.5, STRICT)

    def test_detailed_balance(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            t = rng.uniform(0.1, 0.7)
            omega = rng.uniform(0.1, 20.0) * KB * t
            ratio = sqw_starykh(-omega, t, STRICT) / sqw_starykh(omega, t, STRICT)
            assert ratio == pytest.approx(math.exp(-omega / (KB * t)), rel=1e-10)

    def test_deterministic(self):
        a = sqw_starykh(0.123, 0.5, STRICT)
        b = sqw_starykh(0.123, 0.5, STRICT)
        assert a == b


class TestFluctuationDissipation:
    def test_half_point(self):
        t = 2.0
        omega = math.log(2.0) * KB * t
        assert chi_imag_from_sqw(10.0, omega, t) == pytest.approx(5.0, rel=1e-14)

    def test_high_frequency_limit(self):
        t = 2.0
        omega = 700.0 * KB * t
        assert chi_imag_from_sqw(3.0, omega, t) == pytest.approx(3.0, rel=1e-12)

    def test_zero_frequency_zero(self):
        assert chi_imag_from_sqw(5.0, 0.0, 1.0) == 0.0

    def test_composition_is_odd(self):
        t = 0.5
        for omega in (0.05, 0.21, 0.6):
            plus = chi_imag_from_sqw(sqw_starykh(omega, t, STRICT), omega, t)
            minus = chi_imag_from_sqw(sqw_starykh(-omega, t, STRICT), -omega, t)
            assert minus == pytest.approx(-plus, rel=1e-10)


def chi_imag_reference(omega, t, params):
    """From-scratch evaluation through scipy's log-gamma (oracle)."""
    log_ratio = math.log(params.t0_kelvin / t)
    if params.negative_log_policy == "absolute_value":
        log_ratio = abs(log_ratio)
    d = 0.25 * (1.0 - 1.0 / (2.0 * log_ratio))
    x = omega / (4.0 * math.pi * KB * t)
    im = cmath.exp(
        2 * scipy_loggamma(complex(d, -x)) - 2 * scipy_loggamma(complex(1 - d, -x))
    ).imag
    gamma_sq = cmath.exp(2 * scipy_loggamma(complex(1 - 2 * d))).real
    return (
        params.a_starykh
        / (math.pi * t)
        * 2 ** (2 * d - 1.5)
        * math.sin(2 * math.pi * d)
        * math.sqrt(log_ratio)
        * gamma_sq
        * im
    )


class TestChiImagStarykh:
    def test_zero_at_zero(self):
        assert chi_imag_starykh(0.0, 0.04, STRICT) == 0.0

    def test_nonnegative_over_continuum(self):
        omegas = np.linspace(0.0, math.pi * kelvin_to_mev(J), 400)
        values = chi_imag_starykh(omegas, 0.04, STRICT)
        assert np.all(values >= 0.0)

    def test_definitional_consistency_with_sqw(self):
        omega, t = 0.2, 3.0
        bose = 1.0 - math.exp(-omega / (KB * t))
        assert chi_imag_starykh(omega, t, ABS) == pytest.approx(
            bose * sqw_starykh(omega, t, ABS), rel=1e-12
        )

    def test_dual_implementation_oracle(self):
        for omega, t, params in [
            (0.1, 0.5, STRICT),
            (0.35, 0.04, STRICT),
            (0.1, 3.0, ABS),
            (0.6, 6.7, ABS),
        ]:
            assert chi_imag_starykh(omega, t, params) == pytest.approx(
                chi_imag_reference(omega, t, params), rel=1e-9
            )

    def test_odd_in_omega(self):
        plus = chi_imag_starykh(0.17, 0.5, STRICT)
        minus = chi_imag_starykh(-0.17, 0.5, STRICT)
        assert minus == pytest.approx(-plus, rel=1e-12)


def synthetic_cuts(params, temps, noise=0.0, seed=0, n=80):
    rng = np.random.default_rng(seed)
    cuts = []
    for t in temps:
        e = np.linspace(0.005, 0.8, n)
        clean = chi_imag_starykh(e, t, params)
        sigma = noise * np.max(clean) * np.ones_like(clean)
        values = clean + rng.normal(size=n) * sigma
        cuts.append(EnergyCut(e_axis=e, values=values, errors=sigma, temperature=t))
    return cuts


class TestFitStarykh:
    def test_zero_noise_exact_recovery(self):
        cuts = synthetic_cuts(STRICT, [0.04, 0.5])
        start = StarykhParams(a_starykh=3e-4, t0_kelvin=1.0, j_over_kb=J)
        res = fit_starykh(cuts, start)
        assert res.converged
        assert res.parameters["a_starykh"] == pytest.approx(0.00065, rel=1e-6)
        assert res.parameters["t0_kelvin"] == pytest.approx(T0, rel=1e-6)

    def test_joint_fit_over_four_temperatures(self):
        cuts = synthetic_cuts(ABS, [0.04, 0.5, 3.0, 6.7])
        start = StarykhParams(
            a_starykh=4e-4, t0_kelvin=1.0, j_over_kb=J,
            negative_log_policy="absolute_value",
        )
        res = fit_starykh(cuts, start)
        assert res.parameters["a_starykh"] == pytest.approx(0.00065, rel=1e-4)
        assert res.parameters["t0_kelvin"] == pytest.approx(T0, rel=1e-4)

    def test_noisy_recovery_within_three_sigma_mostly(self):
        hits = 0
        trials = 25
        for seed in range(trials):
            cuts = synthetic_cuts(STRICT, [0.04, 0.5], noise=0.05, seed=seed, n=60)
            start = StarykhParams(a_starykh=4e-4, t0_kelvin=1.0, j_over_kb=J)
            res = fit_starykh(cuts, start)
            if abs(res.parameters["a_starykh"] - 0.00065) <= 3 * res.errors["a_starykh"]:
                hits += 1
        assert hits >= trials - 4

    def test_calibration_frozen_by_default(self):
        cuts = synthetic_cuts(STRICT, [0.04])
        res = fit_starykh(cuts, StarykhParams(a_starykh=5e-4, t0_kelvin=1.0, j_over_kb=J))
        assert res.frozen_mask["cal_0"] is True
        assert res.parameters["cal_0"] == 1.0

    def test_no_cuts_rejected(self):
        with pytest.raises(ValueError):
            fit_starykh([], STRICT)


class TestFeasibleInterval:
    def test_strict(self):
        lo, hi = t0_feasible_interval([0.04, 0.5], "strict", T0)
        assert lo == pytest.approx(0.5 * math.exp(0.5))
        assert hi is None

    def test_strict_infeasible_initial(self):
        with pytest.raises(CutoffDomainError):
            t0_feasible_interval([0.04, 1.0], "strict", 1.2)

    def test_absolute_value_band_structure(self):
        lo, hi = t0_feasible_interval([0.04, 0.5, 3.0, 6.7], "absolute_value", T0)
        assert lo == pytest.approx(0.5 * math.exp(0.5))
        assert hi == pytest.approx(3.0 * math.exp(-0.5))

    def test_absolute_value_infeasible_initial(self):
        with pytest.raises(CutoffDomainError):
            t0_feasible_interval([1.2], "absolute_value", 1.2)


class TestChiImagArrayKernel:
    OMEGA = np.concatenate([np.geomspace(1e-6, 5.0, 200), [0.0, 1e-300, 7.3]])

    @pytest.mark.parametrize("t", [0.02, 0.4, 3.0])
    def test_odd_bitwise_and_zero_at_origin(self, t):
        plus = chi_imag_starykh(self.OMEGA, t, ABS)
        minus = chi_imag_starykh(-self.OMEGA, t, ABS)
        assert np.array_equal(minus, -plus)
        zero = chi_imag_starykh(0.0, t, ABS)
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
        assert math.copysign(1.0, float(chi_imag_starykh(np.array([0.0]), t, ABS)[0])) == 1.0

    def test_scalar_equals_array_element_bitwise(self):
        omega = np.concatenate([-self.OMEGA, self.OMEGA])
        array = chi_imag_starykh(omega, 0.3, STRICT)
        scalars = [chi_imag_starykh(w, 0.3, STRICT) for w in omega.tolist()]
        assert all(isinstance(s, float) for s in scalars)
        assert scalars == array.tolist()

    def test_domain_errors_unchanged_for_arrays(self):
        with pytest.raises(CutoffDomainError):
            chi_imag_starykh(np.linspace(0.1, 1.0, 5), T0, STRICT)
        with pytest.raises(NonPositiveTemperature):
            chi_imag_starykh(np.linspace(0.1, 1.0, 5), 0.0, STRICT)
