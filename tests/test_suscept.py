import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq, minimize_scalar

from chainqfi.core import DEFAULT_UNITS, ChainParameters
from chainqfi.errors import NoInteriorMaximum, NonPositiveTemperature
from chainqfi.suscept import (
    SusceptibilityCurve,
    TMAX_OVER_J,
    chi_bonner_fisher,
    chi_full,
    find_tmax,
    find_tmax_model,
    fit_susceptibility,
    j_from_tmax,
    witness_mwse,
)

REF = ChainParameters(j_over_kb=3.1, g_factor=2.1)
U = DEFAULT_UNITS


def curie_constant(g: float) -> float:
    """High-temperature limit of T * chi for the spin-1/2 chain (oracle)."""
    return U.avogadro * (g * U.bohr_magneton) ** 2 * 0.25 / U.boltzmann_erg_per_kelvin


class TestBonnerFisherModel:
    def test_curie_limit(self):
        t = 1e6
        assert t * chi_bonner_fisher(t, REF) == pytest.approx(
            curie_constant(REF.g_factor), rel=1e-5
        )

    def test_peak_position_matches_series_value(self):
        # independent continuous-optimization oracle for the argmax
        res = minimize_scalar(
            lambda t: -chi_bonner_fisher(t, REF),
            bracket=(1.5, 2.0, 2.6),
            options={"xtol": 1e-12},
        )
        assert res.x / REF.j_over_kb == pytest.approx(0.640851, abs=5e-4)

    def test_find_tmax_on_model(self):
        t_max, unc = find_tmax_model(REF, step=0.01)
        assert t_max / REF.j_over_kb == pytest.approx(0.6408, abs=1e-3)
        assert unc == pytest.approx(0.005, rel=1e-6)

    def test_reference_peak_near_two_kelvin(self):
        # 0.640851 * 3.1, hand multiplication
        t_max, _ = find_tmax_model(REF, step=0.001)
        assert t_max == pytest.approx(1.98664, abs=2e-3)

    def test_large_j_takes_a_bounded_grid(self):
        """At J/k_B = 1e4 K a 0.01 K step would take 1.8 million samples; the
        step widens to 1.8 K, and the peak is still placed."""
        tracemalloc.start()
        try:
            t_max, unc = find_tmax_model(ChainParameters(j_over_kb=1e4, g_factor=2.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t_max / 1e4 == pytest.approx(0.640851, abs=1e-4)
        assert unc == pytest.approx(0.5 * 1.8)
        assert peak < 2e6

    def test_positive_and_single_peak(self):
        t = np.geomspace(1e-3, 100.0 * REF.j_over_kb, 30000)
        chi = chi_bonner_fisher(t, REF)
        assert np.all(chi > 0)
        sign_flips = np.sum(np.diff(np.sign(np.diff(chi))) != 0)
        assert sign_flips == 1

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(NonPositiveTemperature):
            chi_bonner_fisher(0.0, REF)


class TestChiFull:
    def test_reduces_to_chain_model(self):
        t = np.array([0.7, 2.0, 11.0])
        np.testing.assert_array_equal(chi_full(t, REF), chi_bonner_fisher(t, REF))

    def test_diamagnetic_shift_is_constant(self):
        shifted = ChainParameters(j_over_kb=3.1, g_factor=2.1, c1=-16.7e-5)
        t = np.geomspace(0.5, 300, 40)
        np.testing.assert_allclose(
            chi_full(t, shifted) - chi_full(t, REF), -16.7e-5, rtol=1e-9
        )

    def test_impurity_curie_mode(self):
        p = ChainParameters(j_over_kb=3.1, g_factor=2.1, c0=1e-3)
        t = np.array([0.5, 5.0])
        expected = 1e-3 / t + chi_bonner_fisher(t, p)
        np.testing.assert_allclose(chi_full(t, p, impurity_curie=True), expected, rtol=1e-12)


def synthetic_curve(params, noise=0.0, seed=0, n=50, t_lo=0.5, t_hi=300.0):
    t = np.geomspace(t_lo, t_hi, n)
    chi = chi_full(t, params)
    rng = np.random.default_rng(seed)
    sigma = noise * np.abs(chi)
    chi = chi + rng.normal(size=n) * sigma
    return SusceptibilityCurve(temperatures=t, chi=chi, sigma=sigma)


class TestFitSusceptibility:
    def test_noiseless_exact_recovery(self):
        curve = synthetic_curve(REF)
        start = ChainParameters(j_over_kb=2.4, g_factor=1.9)
        res = fit_susceptibility(curve, start, frozen={"c0", "c1"})
        assert res.converged
        assert res.residual_norm < 1e-10
        assert res.parameters["j_over_kb"] == pytest.approx(3.1, rel=1e-6)
        assert res.parameters["g_factor"] == pytest.approx(2.1, rel=1e-6)

    def test_noiseless_with_constants(self):
        truth = ChainParameters(j_over_kb=3.1, g_factor=2.1, c0=2e-5, c1=-16.7e-5)
        curve = synthetic_curve(truth)
        start = ChainParameters(j_over_kb=2.4, g_factor=1.9, c0=0.0, c1=-16.7e-5)
        res = fit_susceptibility(curve, start, frozen={"c1"})
        assert res.parameters["j_over_kb"] == pytest.approx(3.1, rel=1e-6)
        assert res.parameters["g_factor"] == pytest.approx(2.1, rel=1e-6)
        assert res.parameters["c0"] == pytest.approx(2e-5, rel=1e-4)

    def test_noisy_recovery_within_three_sigma_mostly(self):
        hits = 0
        trials = 20
        for seed in range(trials):
            curve = synthetic_curve(REF, noise=0.01, seed=seed)
            res = fit_susceptibility(
                curve, ChainParameters(j_over_kb=2.5, g_factor=2.0), frozen={"c0", "c1"}
            )
            if abs(res.parameters["j_over_kb"] - 3.1) <= 3 * res.errors["j_over_kb"]:
                hits += 1
        assert hits >= trials - 3

    def test_peak_at_1p95_kelvin_gives_j_in_band(self):
        # a curve whose maximum sits at 1.95 K
        j_true = 1.95 / TMAX_OVER_J
        truth = ChainParameters(j_over_kb=j_true, g_factor=2.1, c1=-16.7e-5)
        curve = synthetic_curve(truth, t_lo=0.49)
        res = fit_susceptibility(
            curve,
            ChainParameters(j_over_kb=2.0, g_factor=2.0, c1=-16.7e-5),
            frozen={"c1"},
        )
        assert 3.0 <= res.parameters["j_over_kb"] <= 3.2

    def test_refit_from_optimum_is_fixed_point(self):
        curve = synthetic_curve(REF, noise=0.01, seed=42)
        first = fit_susceptibility(
            curve, ChainParameters(j_over_kb=2.5, g_factor=2.0), frozen={"c0", "c1"}
        )
        second = fit_susceptibility(
            curve,
            ChainParameters(
                j_over_kb=first.parameters["j_over_kb"],
                g_factor=first.parameters["g_factor"],
            ),
            frozen={"c0", "c1"},
        )
        for name in ("j_over_kb", "g_factor"):
            assert second.parameters[name] == pytest.approx(
                first.parameters[name], rel=1e-10
            )

    def test_too_few_points_rejected(self):
        curve = SusceptibilityCurve([1.0, 2.0, 3.0], [1e-2, 2e-2, 1e-2], [0, 0, 0])
        with pytest.raises(ValueError):
            fit_susceptibility(curve, REF)


class TestFindTmax:
    def test_exact_parabola_vertex(self):
        t = np.linspace(1.0, 3.0, 21)
        y = -((t - 2.037) ** 2) + 5.0
        t_max, unc = find_tmax(t, y)
        assert t_max == pytest.approx(2.037, rel=1e-12)
        assert unc == pytest.approx(0.05, rel=1e-9)

    def test_monotone_curve_rejected(self):
        t = np.linspace(1.0, 3.0, 11)
        with pytest.raises(NoInteriorMaximum):
            find_tmax(t, np.exp(-t))


class TestJFromTmax:
    def test_definitional(self):
        assert j_from_tmax(0.640851) == pytest.approx(1.0, rel=1e-12)

    def test_reference_peak(self):
        # quotient 1.95 / 0.640851 (the commonly quoted rounded value is 3.05)
        assert j_from_tmax(1.95) == pytest.approx(1.95 / 0.640851, rel=1e-12)
        assert j_from_tmax(1.95) == pytest.approx(3.043, abs=1e-3)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            j_from_tmax(0.0)


def mw_bound_chi(t, g, spin=0.5):
    """chi saturating the separability bound (oracle for MW_SE = 0)."""
    return (g * U.bohr_magneton) ** 2 * U.avogadro * spin / (
        3.0 * U.boltzmann_erg_per_kelvin * t
    )


class TestWitness:
    def test_boundary_curve_gives_zero(self):
        t = np.geomspace(0.5, 50, 30)
        curve = SusceptibilityCurve(t, mw_bound_chi(t, 2.1), np.zeros_like(t))
        series = witness_mwse(curve, REF)
        np.testing.assert_allclose(series.mw_se, 0.0, atol=1e-12)

    def test_zero_susceptibility(self):
        t = np.geomspace(0.5, 50, 10)
        curve = SusceptibilityCurve(t, np.zeros_like(t), np.zeros_like(t))
        series = witness_mwse(curve, REF)
        np.testing.assert_array_equal(series.mw_se, -1.0)
        assert series.t_se is None

    def test_chain_model_crossing_matches_bisection_oracle(self):
        t = np.arange(0.5, 8.0, 0.002)
        curve = SusceptibilityCurve(t, chi_bonner_fisher(t, REF), np.zeros_like(t))
        series = witness_mwse(curve, REF)

        def mw_of_t(tv):
            return (
                3.0
                * U.boltzmann_erg_per_kelvin
                * tv
                * chi_bonner_fisher(tv, REF)
                / ((REF.g_factor * U.bohr_magneton) ** 2 * U.avogadro * REF.spin)
                - 1.0
            )

        oracle_root = brentq(mw_of_t, 3.0, 6.0, xtol=1e-12)
        assert series.t_se is not None
        assert abs(series.t_se - oracle_root) <= 0.02
        # the crossing sits near 1.43 J/k_B for the spin-1/2 chain
        assert oracle_root == pytest.approx(4.43, abs=0.02)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.05, max_value=20.0))
    def test_scale_equivariance(self, alpha):
        t = np.geomspace(0.5, 20, 25)
        chi = chi_bonner_fisher(t, REF)
        base = witness_mwse(
            SusceptibilityCurve(t, chi, np.zeros_like(t)), REF
        ).mw_se
        scaled = witness_mwse(
            SusceptibilityCurve(t, alpha * chi, np.zeros_like(t)), REF
        ).mw_se
        np.testing.assert_allclose(scaled, alpha * (base + 1.0) - 1.0, rtol=1e-9, atol=1e-12)


class TestOneChainFormula:
    @pytest.mark.parametrize("impurity_curie", [False, True])
    def test_fit_residual_is_chi_full_bitwise(self, monkeypatch, impurity_curie):
        from chainqfi import fitter

        captured = {}

        def capture(residual_fn, start, **kwargs):
            captured["fn"] = residual_fn

        monkeypatch.setattr(fitter, "least_squares", capture)
        truth = ChainParameters(j_over_kb=3.1, g_factor=2.1, c0=2e-5, c1=-16.7e-5)
        curve = synthetic_curve(truth, noise=0.01, seed=3)
        fit_susceptibility(curve, truth, impurity_curie=impurity_curie)
        trial = ChainParameters(j_over_kb=2.7, g_factor=1.93, c0=3e-4, c1=-2e-5)
        residual = captured["fn"](
            {"j_over_kb": 2.7, "g_factor": 1.93, "c0": 3e-4, "c1": -2e-5}
        )
        model = chi_full(curve.temperatures, trial, impurity_curie=impurity_curie)
        expected = (model - curve.chi) * (1.0 / curve.sigma)
        np.testing.assert_array_equal(residual, expected)
