import math
import warnings

import numpy as np
import pytest

from chainqfi import fitter
from chainqfi.errors import CutoffDomainError, FitDiverged, SingularJacobian
from chainqfi.fitter import least_squares

X = np.linspace(0.0, 5.0, 21)


def linear_residuals(p):
    return p["a"] * X + p["b"] - (2.0 * X + 1.0)


class TestLinearProblems:
    def test_exact_recovery_in_two_iterations(self):
        res = least_squares(linear_residuals, {"a": 0.0, "b": 0.0})
        assert res.converged
        assert res.iterations <= 2
        assert res.parameters["a"] == pytest.approx(2.0, abs=1e-10)
        assert res.parameters["b"] == pytest.approx(1.0, abs=1e-10)
        assert res.residual_norm < 1e-10

    def test_frozen_parameter_is_untouched(self):
        res = least_squares(linear_residuals, {"a": 0.0, "b": 1.0}, frozen={"b"})
        assert res.parameters["b"] == 1.0
        assert res.errors["b"] == 0.0
        assert res.frozen_mask == {"a": False, "b": True}
        assert res.parameters["a"] == pytest.approx(2.0, abs=1e-10)

    def test_all_frozen_rejected(self):
        with pytest.raises(ValueError):
            least_squares(linear_residuals, {"a": 1.0, "b": 1.0}, frozen={"a", "b"})

    def test_underdetermined_rejected(self):
        def two_residuals(p):
            return np.array([p["a"] - 1.0, p["b"] - 2.0])[:1]

        with pytest.raises(ValueError):
            least_squares(two_residuals, {"a": 0.0, "b": 0.0})


class TestRosenbrock:
    def test_classical_benchmark(self):
        def residuals(p):
            return np.array([10.0 * (p["y"] - p["x"] ** 2), 1.0 - p["x"]])

        res = least_squares(residuals, {"x": -1.2, "y": 1.0})
        assert res.converged
        assert res.parameters["x"] == pytest.approx(1.0, abs=1e-8)
        assert res.parameters["y"] == pytest.approx(1.0, abs=1e-8)


class TestInvariants:
    def test_cost_never_worse_than_start(self):
        rng = np.random.default_rng(3)
        x = np.linspace(0.1, 4.0, 30)
        data = np.exp(-0.7 * x) * 2.5 + rng.normal(scale=0.01, size=x.size)

        def residuals(p):
            return p["amp"] * np.exp(-p["rate"] * x) - data

        for _ in range(5):
            start = {"amp": rng.uniform(0.1, 5.0), "rate": rng.uniform(0.1, 2.0)}
            c0 = float(np.sum(residuals(start) ** 2))
            res = least_squares(residuals, start)
            assert res.residual_norm**2 <= c0 + 1e-30

    def test_reparametrization_scales_exactly(self):
        x = np.linspace(1.0, 3.0, 15)
        data = 1.7 * x + 0.4

        def residuals_plain(p):
            return p["a"] * x + p["b"] - data

        def residuals_scaled(p):
            # parameter unit scaled by 10: a_scaled == 10 a
            return (p["a10"] / 10.0) * x + p["b"] - data

        r1 = least_squares(residuals_plain, {"a": 1.0, "b": 0.0})
        r2 = least_squares(residuals_scaled, {"a10": 10.0, "b": 0.0})
        assert r2.parameters["a10"] == pytest.approx(10.0 * r1.parameters["a"], rel=1e-12)
        c1, c2 = r1.residual_norm**2, r2.residual_norm**2
        assert c2 == pytest.approx(c1, abs=1e-10 * max(c1, 1e-30) + 1e-25)

    def test_determinism(self):
        def residuals(p):
            return np.array(
                [p["a"] ** 2 - 2.0, p["a"] * p["b"] - 0.5, np.sin(p["b"]) - 0.3]
            )

        r1 = least_squares(residuals, {"a": 1.0, "b": 1.0})
        r2 = least_squares(residuals, {"a": 1.0, "b": 1.0})
        assert r1.parameters == r2.parameters
        assert np.array_equal(r1.covariance, r2.covariance)
        assert r1.iterations == r2.iterations


class TestCovariance:
    def test_covariance_matches_linear_theory(self):
        rng = np.random.default_rng(17)
        sigma = 0.05
        x = np.linspace(0.0, 1.0, 200)
        data = 3.0 * x + 0.5 + rng.normal(scale=sigma, size=x.size)

        def residuals(p):
            return (p["a"] * x + p["b"] - data) / sigma

        res = least_squares(residuals, {"a": 1.0, "b": 0.0})
        design = np.column_stack((x, np.ones_like(x))) / sigma
        expected = res.reduced_chi2 * np.linalg.inv(design.T @ design)
        np.testing.assert_allclose(res.covariance, expected, rtol=1e-5)
        assert res.reduced_chi2 == pytest.approx(1.0, abs=0.3)

    @pytest.mark.parametrize("bound", [(0.0, None), (None, 10.0), (0.0, 10.0)],
                             ids=["lower", "upper", "two-sided"])
    def test_inactive_bound_maps_covariance_back(self, bound):
        # a ~ 3 sits well inside each bound: dp/du must carry the covariance
        # of the internal coordinate back to the unbounded one
        rng = np.random.default_rng(17)
        sigma = 0.05
        x = np.linspace(0.0, 1.0, 200)
        data = 3.0 * x + 0.5 + rng.normal(scale=sigma, size=x.size)

        def residuals(p):
            return (p["a"] * x + p["b"] - data) / sigma

        free = least_squares(residuals, {"a": 1.0, "b": 0.0})
        bounded = least_squares(residuals, {"a": 1.0, "b": 0.0}, bounds={"a": bound})
        np.testing.assert_allclose(bounded.covariance, free.covariance, rtol=1e-5)

    def test_covariance_psd(self):
        res = least_squares(linear_residuals, {"a": 0.3, "b": -2.0})
        eigs = np.linalg.eigvalsh(res.covariance)
        assert np.all(eigs >= -1e-18)


class TestBoundsAndFallback:
    def test_lower_bound_respected(self):
        x = np.linspace(0.5, 3.0, 12)
        data = 0.2 * x

        def residuals(p):
            return p["slope"] * x - data

        res = least_squares(residuals, {"slope": 1.0}, bounds={"slope": (0.0, None)})
        assert res.parameters["slope"] > 0.0
        assert res.parameters["slope"] == pytest.approx(0.2, rel=1e-8)

    def test_two_sided_bound_respected(self):
        def residuals(p):
            return np.array([p["v"] - 5.0, 0.0 * p["v"]])

        res = least_squares(residuals, {"v": 0.5}, bounds={"v": (0.0, 1.0)})
        assert 0.0 < res.parameters["v"] <= 1.0
        assert res.parameters["v"] == pytest.approx(1.0, abs=1e-4)

    def test_step_that_overflows_the_bound_transform_is_rejected(self):
        # c <= 0 is fitted as c = -exp(u); from c = -1e-12 the undamped step
        # is u += ~1e9, whose exp overflows: damping must grow instead
        def residuals(p):
            return np.array([p["c"] + 1e-3, 2.0 * (p["c"] + 1e-3)])

        res = least_squares(residuals, {"c": -1e-12}, bounds={"c": (None, 0.0)})
        assert res.converged
        assert res.parameters["c"] == pytest.approx(-1e-3, rel=1e-10)

    @pytest.mark.parametrize("refusal", [ValueError, CutoffDomainError])
    def test_step_the_model_refuses_is_rejected(self, refusal):
        # the model takes a <= 2.5 only; the undamped step from a = 0 lands on a = 4
        def residuals(p):
            if p["a"] > 2.5:
                raise refusal(f"a = {p['a']} lies outside the model's domain")
            return np.array([math.exp(p["a"]) - 5.0])

        res = least_squares(residuals, {"a": 0.0})
        assert res.converged
        assert res.parameters["a"] == pytest.approx(math.log(5.0), rel=1e-10)

    def test_overflowing_trials_are_rejected_without_a_warning(self):
        # from a = -6 the undamped step on exp(a) - 2 lands near a = 800, and
        # damped ones on points whose exp or cost overflows
        def residuals(p):
            return np.array([np.exp(p["a"]) - 2.0])

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = least_squares(residuals, {"a": -6.0})
        assert [str(w.message) for w in caught] == []
        assert res.converged
        assert res.parameters["a"] == pytest.approx(math.log(2.0), rel=1e-10)

    def test_the_start_keeps_its_refusal_and_warnings(self):
        def residuals(p):
            return np.array([np.exp(p["a"]) - 2.0])

        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(ValueError, match="residual is not finite at the initial point"):
            least_squares(residuals, {"a": 1e3})

        def refusing(p):
            raise CutoffDomainError("the start lies outside the model's domain")

        with pytest.raises(CutoffDomainError, match="the start lies outside"):
            least_squares(refusing, {"a": 1.0})

    def test_refused_jacobian_column_is_singular(self):
        # the model takes the start only: the first forward difference is refused
        def cliff(p):
            if p["a"] != 2.0:
                raise ValueError("outside the model's domain")
            return np.array([p["a"] - 0.5])

        with pytest.raises(SingularJacobian, match="^Jacobian contains non-finite entries$"):
            least_squares(cliff, {"a": 2.0})

    def test_rank_deficient_start_is_fit_by_damping(self):
        # residuals depend only on a + b: Jacobian rank 1 at every point. There
        # is no fallback: damped Levenberg-Marquardt fits a + b to rounding
        target = np.array([1.0, 2.0, 3.0])

        def residuals(p):
            s = p["a"] + p["b"]
            return s * np.ones(3) - target

        res = least_squares(residuals, {"a": 0.0, "b": 0.0})
        assert res.converged
        assert "nelder-mead" not in res.message
        assert res.parameters["a"] + res.parameters["b"] == pytest.approx(2.0, abs=1e-10)

    def test_divergence_reported(self):
        # V-shaped residual with a large offset: the forward-difference
        # gradient points downhill but every finite step increases the
        # cost, so the damping parameter escalates past its cap
        def residuals(p):
            return np.array([abs(p["a"] - 1.4) + 1000.0])

        with pytest.raises(FitDiverged):
            least_squares(residuals, {"a": 1.4})

    def test_non_finite_starting_cost_is_refused(self):
        # finite residuals whose squares overflow: r @ r is inf at the start
        def residuals(p):
            return np.array([1e300, 1e300, 1e300]) + p["a"] + p["b"]

        with pytest.raises(FitDiverged, match="cost is not finite at the initial point"):
            least_squares(residuals, {"a": 0.0, "b": 0.0})


def test_iteration_cap_is_reported(monkeypatch):
    def residuals(p):
        return np.array([10.0 * (p["y"] - p["x"] ** 2), 1.0 - p["x"]])

    monkeypatch.setattr(fitter, "_MAX_ITERATIONS", 1)
    res = least_squares(residuals, {"x": -1.2, "y": 1.0})
    assert res.iterations == 1
    assert res.converged is False
    assert res.message == "maximum iterations reached"


def test_near_collinear_full_rank_start_stays_on_levenberg_marquardt():
    # columns 1 and x differ by at most 1e-3: condition number about 1e4
    x = np.linspace(1.0, 1.001, 9)

    def residuals(p):
        return p["a"] + p["b"] * x - (1.0 + 2.0 * x)

    res = least_squares(residuals, {"a": 0.0, "b": 0.0})
    assert "nelder-mead" not in res.message
    assert res.converged


def test_residual_of_any_shape_is_flattened():
    """A residual returned as a 2-d array fits exactly as its flattened 1-d form."""
    x = np.linspace(0.0, 1.0, 12)

    def flat(p):
        return p["a"] * x + p["b"] - np.exp(x)

    one = least_squares(flat, {"a": 1.0, "b": 0.0})
    two = least_squares(lambda p: flat(p).reshape(3, 4), {"a": 1.0, "b": 0.0})
    for name in ("parameters", "errors", "free_names", "residual_norm", "reduced_chi2",
                 "iterations", "converged", "frozen_mask", "message"):
        assert getattr(two, name) == getattr(one, name), name
    assert np.array_equal(two.covariance, one.covariance)

