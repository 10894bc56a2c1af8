"""Refusals and fallbacks that the other test files do not reach: each case
asserts its exit code or exception class and its message."""
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from chainqfi.cli import main
from chainqfi.core import ChainParameters, EnergyCut, SpectrumGrid
from chainqfi.dynamics import StarykhParams, t0_feasible_interval
from chainqfi.errors import AxisNotMonotone, NoInteriorMaximum, SingularJacobian
from chainqfi.fitter import least_squares
from chainqfi.pipeline_io import (
    SynthConfig,
    generate_synthetic_dataset,
    integrate_q_window,
    synthetic_dataset,
    write_susceptibility_csv,
)
from chainqfi.spinon import forward_powder_average
from chainqfi.suscept import SusceptibilityCurve, chi_full, find_tmax

CHAIN = ChainParameters(j_over_kb=3.1, g_factor=2.1, lattice_c=5.32)
STARYKH = StarykhParams(a_starykh=0.00065, t0_kelvin=math.pi * 3.1 / 8, j_over_kb=3.1)
SMALL = dict(
    q_axis=np.linspace(0.15, 1.5, 28),
    e_axis=np.linspace(-0.195, 1.005, 61),
    chi_temperatures=np.geomspace(0.5, 300.0, 40),
)


def error_line(capsys) -> dict:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


def write_chi(path, t_lo, t_hi, n=60):
    t = np.geomspace(t_lo, t_hi, n)
    write_susceptibility_csv(path, SusceptibilityCurve(t, chi_full(t, CHAIN), np.zeros(n)))
    return str(path)


@pytest.mark.parametrize(
    "frag, message",
    [
        ("J", "--freeze expects NAME=VALUE, got 'J'"),
        ("X=1", "unknown parameter 'X' in --freeze"),
    ],
)
def test_freeze_refusals(tmp_path, capsys, frag, message):
    chi_csv = write_chi(tmp_path / "chi.csv", 0.5, 300.0)
    out = tmp_path / "o"
    assert main(["fit-susceptibility", chi_csv, "--freeze", frag, "--out", str(out)]) == 2
    assert error_line(capsys) == {"error": "ValueError", "message": message}
    assert not out.exists()


def test_fit_above_the_maximum_reports_no_data_maximum(tmp_path):
    # 3-300 K lies wholly above T_max = 1.99 K, so the data have no interior peak
    chi_csv = write_chi(tmp_path / "chi.csv", 3.0, 300.0)
    out = tmp_path / "o"
    assert main(["fit-susceptibility", chi_csv, "--freeze", "g=2.1", "--out", str(out),
                 "--deterministic"]) == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert report["t_max_data_K"] is None
    assert report["t_max_data_uncertainty_K"] is None
    assert report["j_from_t_max_data_K"] is None
    assert report["t_max_model_K"] == pytest.approx(0.640851 * 3.1, rel=1e-3)


def test_qfi_data_on_manifests_that_disagree_on_policy(tmp_path, capsys):
    written = generate_synthetic_dataset(
        CHAIN, STARYKH, [0.5, 0.7], tmp_path / "data", config=SynthConfig(**SMALL)
    )
    manifests = [entry["manifest"] for entry in written["spectra"]]
    data = json.loads(Path(manifests[1]).read_text())
    data["policies"]["negative_log_policy"] = "absolute_value"
    Path(manifests[1]).write_text(json.dumps(data))
    out = tmp_path / "o"
    assert main(["qfi", "--data", *manifests, "--out", str(out)]) == 2
    assert error_line(capsys) == {
        "error": "ValueError",
        "message": "manifests disagree on negative_log_policy ['absolute_value', 'strict']; "
        "pass --policy explicitly",
    }
    assert not out.exists()
    assert main(["qfi", "--data", *manifests, "--policy", "strict", "--out", str(out),
                 "--deterministic"]) == 0
    report = json.loads((out / "qfi_report.json").read_text())
    assert report["negative_log_policy"] == "strict"


def residual(p):
    return np.array([p["a"] - 0.5])


@pytest.mark.parametrize(
    "bounds, message",
    [
        ((0.0, 1.0), "initial value 2.0 outside bounds (0.0, 1.0)"),
        ((3.0, None), "initial value 2.0 must exceed lower bound 3.0"),
        ((None, 1.0), "initial value 2.0 must be below upper bound 1.0"),
    ],
    ids=["two-sided", "lower", "upper"],
)
def test_least_squares_start_outside_bounds(bounds, message):
    with pytest.raises(ValueError) as exc:
        least_squares(residual, {"a": 2.0}, bounds={"a": bounds})
    assert str(exc.value) == message


def test_least_squares_unknown_frozen_name():
    with pytest.raises(ValueError) as exc:
        least_squares(residual, {"a": 2.0}, frozen={"b"})
    assert str(exc.value) == "frozen mask names unknown parameters: ['b']"


@pytest.mark.parametrize("q_min, q_max", [(0.8, 0.8), (1.1, 0.4)])
def test_integrate_q_window_empty_window(q_min, q_max):
    grid = SpectrumGrid(
        q_axis=np.linspace(0.1, 1.2, 12), e_axis=np.array([0.0, 0.5]),
        intensity=np.ones((2, 12)), errors=np.zeros((2, 12)), temperature=0.5,
    )
    with pytest.raises(ValueError) as exc:
        integrate_q_window(grid, q_min, q_max)
    assert str(exc.value) == f"q_min must be below q_max, got [{q_min}, {q_max}]"


def test_synthetic_dataset_needs_lattice_c():
    chain = ChainParameters(j_over_kb=3.1, g_factor=2.1)
    with pytest.raises(ValueError) as exc:
        synthetic_dataset(chain, STARYKH, [0.5], SynthConfig(**SMALL))
    assert str(exc.value) == "chain.lattice_c is required to place the zone center"


@pytest.mark.parametrize("q_axis", [[0.0, 0.5], [-0.5, 0.5]])
def test_forward_powder_average_refuses_nonpositive_q(q_axis):
    with pytest.raises(ValueError) as exc:
        forward_powder_average(lambda q, e: 1.0, q_axis, [0.0])
    assert str(exc.value) == "q_axis must be strictly positive for the powder average"


@pytest.mark.parametrize(
    "q_axis, entry, value",
    [([0.5, math.nan, 0.9], 1, "nan"), ([0.5, math.inf], 1, "inf"), ([-math.inf, 0.5], 0, "-inf")],
)
def test_forward_powder_average_refuses_nonfinite_q_before_integrating(q_axis, entry, value):
    calls = []

    def s_1d(q, e):
        calls.append(q)
        return np.ones_like(q)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            forward_powder_average(s_1d, q_axis, [0.0])
    assert str(exc.value) == (
        f"q_axis must be finite for the powder average, got {value} at entry {entry}"
    )
    assert not calls


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: EnergyCut([0.0, 1.0, math.inf], [1.0, 2.0, 3.0], [0.0] * 3, 0.5),
         "e_axis must be finite, got inf at entry 2"),
        (lambda: EnergyCut([math.nan], [1.0], [0.0], 0.5), "e_axis must be finite, got nan at entry 0"),
        (lambda: SpectrumGrid([0.1, math.inf], [0.0], [[1.0, 2.0]], [[0.0, 0.0]], 0.5),
         "q_axis must be finite, got inf at entry 1"),
    ],
    ids=["EnergyCut inf", "EnergyCut nan", "SpectrumGrid inf"],
)
def test_a_nonfinite_axis_entry_is_refused_by_name(make, message):
    with pytest.raises(AxisNotMonotone) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "e_axis, entry, value", [([0.0, math.nan], 1, "nan"), ([-math.inf, 0.0], 0, "-inf")]
)
def test_forward_powder_average_refuses_nonfinite_e_before_integrating(e_axis, entry, value):
    calls = []

    def s_1d(q, e):
        calls.append(q)
        return np.ones_like(q)

    with pytest.raises(AxisNotMonotone) as exc:
        forward_powder_average(s_1d, [0.5, 0.9], e_axis)
    assert str(exc.value) == f"e_axis must be finite, got {value} at entry {entry}"
    assert len(calls) == 0


@pytest.mark.parametrize("n", [0, 1, 2])
def test_find_tmax_needs_three_samples(n):
    t = np.linspace(1.0, 2.0, n)
    with pytest.raises(ValueError) as exc:
        find_tmax(t, np.ones(n))
    assert str(exc.value) == "need at least 3 samples of equal length"


@pytest.mark.parametrize("policy", ["strict", "absolute_value"])
def test_t0_feasible_interval_needs_a_temperature(policy):
    with pytest.raises(ValueError) as exc:
        t0_feasible_interval([], policy, 1.2)
    assert str(exc.value) == "need at least one temperature"


@pytest.mark.parametrize(
    "chi, sigma, message",
    [
        ([1.0, 2.0], [0.0, 0.0, 0.0], "temperatures, chi, sigma must have equal length"),
        ([1.0, 2.0, 3.0], [0.0, 0.0], "temperatures, chi, sigma must have equal length"),
        ([1.0, 2.0, 3.0], [0.0, -0.1, 0.0], "sigma must be nonnegative"),
    ],
    ids=["short chi", "short sigma", "negative sigma"],
)
def test_susceptibility_curve_refusals(chi, sigma, message):
    with pytest.raises(ValueError) as exc:
        SusceptibilityCurve(np.array([1.0, 2.0, 3.0]), np.array(chi), np.array(sigma))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "make, axis",
    [
        (lambda: EnergyCut([], [], [], 1.0), "e_axis"),
        (lambda: SpectrumGrid([], [0.3], np.empty((1, 0)), np.empty((1, 0)), 1.0), "q_axis"),
    ],
    ids=["EnergyCut", "SpectrumGrid"],
)
def test_an_empty_axis_is_refused(make, axis):
    with pytest.raises(AxisNotMonotone) as exc:
        make()
    assert str(exc.value) == f"{axis} must be a non-empty 1-d array"


def test_starykh_params_refuse_an_unknown_policy():
    with pytest.raises(ValueError) as exc:
        StarykhParams(0.00065, 1.2, 3.1, negative_log_policy="lenient")
    assert str(exc.value) == (
        "negative_log_policy must be one of ('strict', 'absolute_value'), got 'lenient'"
    )


def test_find_tmax_refuses_a_degenerate_parabola():
    """The maximum is interior, but its two bracketing samples on the right
    coincide, so no parabola passes through the three."""
    with pytest.raises(NoInteriorMaximum) as exc:
        find_tmax([1.0, 2.0, 2.0], [0.0, 1.0, 1.0])
    assert str(exc.value) == "degenerate parabola through the bracketing samples"


def test_least_squares_refuses_a_nonfinite_jacobian():
    """The residual is finite at the start and infinite at every other point,
    so the first forward difference is not finite."""

    def cliff(p):
        return np.array([p["a"] - 0.5 if p["a"] == 2.0 else math.inf])

    with pytest.raises(SingularJacobian) as exc:
        least_squares(cliff, {"a": 2.0})
    assert str(exc.value) == "Jacobian contains non-finite entries"
