"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured value against its stated tolerance."""

import cmath
import math
import os
import time
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from chainqfi.cli import J_FROM_TMAX_NOTE, main
from chainqfi.core import DEFAULT_UNITS, ChainParameters, EnergyCut, kelvin_to_mev
from chainqfi.dynamics import StarykhParams, chi_imag_starykh, sqw_starykh
from chainqfi.pipeline_io import SynthConfig, generate_synthetic_dataset, write_susceptibility_csv
from chainqfi.qfi import compute_qfi, fit_scaling
from chainqfi.specfun import log_gamma_complex
from chainqfi.spinon import forward_powder_average, powder_to_1d, two_spinon_bounds
from chainqfi.suscept import (
    SusceptibilityCurve,
    chi_bonner_fisher,
    chi_full,
    find_tmax_model,
    fit_susceptibility,
    j_from_tmax,
    witness_mwse,
)

KB = DEFAULT_UNITS.boltzmann_mev_per_kelvin
REF = ChainParameters(j_over_kb=3.1, g_factor=2.1)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_johnston_peak_relation():
    t_start = time.perf_counter()
    t_max, _ = find_tmax_model(REF, step=0.01)
    elapsed = time.perf_counter() - t_start
    ratio = t_max / REF.j_over_kb
    ok = abs(ratio - 0.6408) <= 1e-3 and elapsed < 1.0
    report(1, ok, f"T_max/(J/k_B) = {ratio:.6f} (target 0.6408 +- 0.001), {elapsed:.3f} s")


def test_criterion_02_j_from_peak_temperature():
    j = j_from_tmax(1.95)
    documented = "3.043" in J_FROM_TMAX_NOTE and "3.05" in J_FROM_TMAX_NOTE
    ok = abs(j - 3.043) <= 1e-3 and documented
    report(2, ok, f"j_from_tmax(1.95 K) = {j:.4f} K (target 3.043 +- 0.001), note documented: {documented}")


def test_criterion_03_monte_carlo_fit_recovery():
    truth = ChainParameters(j_over_kb=3.1, g_factor=2.1, c0=2e-5, c1=-16.7e-5)
    temps = np.geomspace(0.6, 300.0, 60)
    clean = chi_full(temps, truth)
    sigma = 0.01 * np.abs(clean)
    start = ChainParameters(j_over_kb=2.5, g_factor=2.0, c0=0.0, c1=-16.7e-5)
    hits = 0
    t_start = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        curve = SusceptibilityCurve(temps, clean + rng.normal(size=60) * sigma, sigma)
        res = fit_susceptibility(curve, start, frozen={"c1"})
        if abs(res.parameters["j_over_kb"] - 3.1) <= 3.0 * res.errors["j_over_kb"]:
            hits += 1
    elapsed = time.perf_counter() - t_start
    ok = hits >= 93 and elapsed < 30.0
    report(3, ok, f"J within 3 sigma in {hits}/100 trials (need >= 93), {elapsed:.1f} s (< 30 s)")


def test_criterion_04_witness_temperature():
    t = np.arange(0.5, 8.0, 0.002)
    curve = SusceptibilityCurve(t, chi_bonner_fisher(t, REF), np.zeros_like(t))
    series = witness_mwse(curve, REF)

    def mw(tv):
        return (
            3.0 * DEFAULT_UNITS.boltzmann_erg_per_kelvin * tv * chi_bonner_fisher(tv, REF)
            / ((REF.g_factor * DEFAULT_UNITS.bohr_magneton) ** 2 * DEFAULT_UNITS.avogadro * REF.spin)
            - 1.0
        )

    oracle = brentq(mw, 3.0, 6.0, xtol=1e-12)
    ok = (
        series.t_se is not None
        and abs(series.t_se - oracle) <= 0.02
        and abs(oracle - 4.43) <= 0.02
    )
    report(4, ok, f"T_SE = {series.t_se:.4f} K vs bisection oracle {oracle:.4f} K (4.43 +- 0.02)")


def test_criterion_05_special_function_identities():
    rng = np.random.default_rng(2024)
    worst_reflection = 0.0
    for _ in range(100):
        z = complex(rng.uniform(0.01, 0.99), rng.uniform(-20, 20))
        lhs = (
            cmath.exp(log_gamma_complex(z))
            * cmath.exp(log_gamma_complex(1 - z))
            * cmath.sin(math.pi * z) / math.pi
        )
        worst_reflection = max(worst_reflection, abs(lhs - 1.0))
    worst_recurrence = 0.0
    for _ in range(100):
        z = complex(rng.uniform(0.5, 30.0), rng.uniform(-20, 20))
        diff = log_gamma_complex(z + 1) - log_gamma_complex(z) - cmath.log(z)
        worst_recurrence = max(worst_recurrence, abs(diff))
    gamma_i = abs(cmath.exp(log_gamma_complex(1j)))
    identity = math.sqrt(math.pi / math.sinh(math.pi))
    gamma_err = abs(gamma_i - identity) / identity
    ok = worst_reflection < 1e-10 and worst_recurrence < 1e-10 and gamma_err < 1e-10
    report(
        5,
        ok,
        f"reflection {worst_reflection:.2e}, recurrence {worst_recurrence:.2e}, "
        f"|Gamma(i)| rel err {gamma_err:.2e} (all < 1e-10)",
    )


def test_criterion_06_detailed_balance():
    params = StarykhParams(a_starykh=0.00065, t0_kelvin=math.pi * 3.1 / 8, j_over_kb=3.1)
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        t = rng.uniform(0.1, 0.7)
        omega = rng.uniform(0.1, 20.0) * KB * t
        ratio = sqw_starykh(-omega, t, params) / sqw_starykh(omega, t, params)
        expected = math.exp(-omega / (KB * t))
        worst = max(worst, abs(ratio - expected) / expected)
    ok = worst < 1e-10
    report(6, ok, f"max |S(-w)/S(w) - exp(-w/kT)| rel = {worst:.2e} at 50 points (< 1e-10)")


def test_criterion_07_qfi_quadrature():
    t = 1.0
    a, b = 0.2, 0.6
    e = np.arange(0.0, 0.84 + 1e-5, 2e-5)
    box = EnergyCut(e, np.where((e >= a) & (e <= b), 1.0, 0.0), np.zeros_like(e), t)
    kt2 = 2.0 * KB * t
    box_exact = (4.0 / math.pi) * kt2 * (
        math.log(math.cosh(b / kt2)) - math.log(math.cosh(a / kt2))
    )
    box_err = abs(compute_qfi(box, omega_max=0.84).f_q - box_exact) / box_exact

    omega0, width = 0.5, 0.004
    gauss_exact = (4.0 / math.pi) * math.tanh(omega0 / kt2)
    gauss_point = compute_qfi(
        lambda w: math.exp(-0.5 * ((w - omega0) / width) ** 2) / (width * math.sqrt(2 * math.pi)),
        t=t,
        omega_max=0.9,
    )
    gauss_err = abs(gauss_point.f_q - gauss_exact) / gauss_exact

    base = compute_qfi(box, omega_max=0.84).f_q
    scaled = compute_qfi(
        EnergyCut(e, 2.5 * box.values, box.errors, t), omega_max=0.84
    ).f_q
    linearity = abs(scaled - 2.5 * base) / (2.5 * base)

    f_by_t = [
        compute_qfi(EnergyCut(e, box.values, box.errors, tt), omega_max=0.84).f_q
        for tt in (0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    monotone = all(x >= y for x, y in zip(f_by_t, f_by_t[1:]))

    ok = box_err < 1e-3 and gauss_err < 1e-3 and linearity < 1e-12 and monotone
    report(
        7,
        ok,
        f"box rel err {box_err:.2e}, gaussian rel err {gauss_err:.2e} (< 1e-3), "
        f"linearity {linearity:.2e} (< 1e-12), T-monotone {monotone}",
    )


def test_criterion_08_scaling_reproduction():
    j = 3.1
    omega_max = math.pi * kelvin_to_mev(j)
    temps = [0.04, 0.5, 3.0, 6.7]
    params = StarykhParams(
        a_starykh=0.00065, t0_kelvin=math.pi * j / 8.0, j_over_kb=j,
        negative_log_policy="absolute_value",
    )
    points = [
        compute_qfi(lambda w, tt=tt: chi_imag_starykh(w, tt, params), t=tt, omega_max=omega_max)
        for tt in temps
    ]
    fit = fit_scaling(points, z=1.0)
    in_band = 0.40 <= fit.delta_q_over_z <= 0.70

    strict = StarykhParams(a_starykh=0.00065, t0_kelvin=math.pi * j / 8.0, j_over_kb=j)
    strict_points = [
        compute_qfi(lambda w, tt=tt: chi_imag_starykh(w, tt, strict), t=tt, omega_max=omega_max)
        for tt in (0.04, 0.5)
    ]
    slope = (
        math.log(strict_points[1].f_q / strict_points[0].f_q)
        / math.log(0.5 / 0.04)
    )
    strict_positive = -slope > 0.0
    ok = in_band and strict_positive
    report(
        8,
        ok,
        f"Delta_Q/z = {fit.delta_q_over_z:.4f} (absolute-value policy, band [0.40, 0.70], "
        f"reference 0.55); strict two-point exponent {-slope:.4f} > 0",
    )


def _round_trip_rms(n_q):
    def signal(q, e):
        center = 0.6 + 0.15 * e
        width = 0.25
        return (
            math.exp(-0.5 * ((q - center) / width) ** 2)
            + math.exp(-0.5 * ((q + center) / width) ** 2)
            + 0.1
        )

    q = np.linspace(0.2, 2.0, n_q)
    e = np.linspace(0.0, 0.5, 6)
    recovered = powder_to_1d(forward_powder_average(signal, q, e))
    truth = np.array([[signal(qv, ev) for qv in q] for ev in e])
    rms = math.sqrt(np.mean((recovered.intensity - truth) ** 2) / np.mean(truth**2))
    h = (2.0 - 0.2) / (n_q - 1)
    return rms, h


def test_criterion_09_powder_round_trip():
    t_start = time.perf_counter()
    rms_fine, h_fine = _round_trip_rms(128)
    rms_coarse, h_coarse = _round_trip_rms(64)
    elapsed = time.perf_counter() - t_start
    order = math.log(rms_coarse / rms_fine) / math.log(h_coarse / h_fine)
    ok = rms_fine < 0.02 and order >= 1.9 and elapsed < 10.0
    report(
        9,
        ok,
        f"RMS {100 * rms_fine:.3f}% at 128 Q-points (< 2%), convergence order "
        f"{order:.2f} (>= 1.9), {elapsed:.1f} s (< 10 s)",
    )


def test_criterion_10_spinon_bound_anchors():
    j_mev = kelvin_to_mev(3.1)
    c = 5.32
    lower_mid, _ = two_spinon_bounds(math.pi / (2 * c), j_mev, c)
    _, upper_zb = two_spinon_bounds(math.pi / c, j_mev, c)
    err_lower = abs(lower_mid - math.pi * j_mev / 2) / (math.pi * j_mev / 2)
    err_upper = abs(upper_zb - math.pi * j_mev) / (math.pi * j_mev)
    ok = err_lower < 1e-12 and err_upper < 1e-12
    report(
        10,
        ok,
        f"E_l(pi/2c) rel err {err_lower:.1e}, E_u(pi/c) rel err {err_upper:.1e} "
        f"(closed form, upper bound pi*J = {math.pi * j_mev:.4f} meV)",
    )


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = Path(full).read_bytes()
    return out


def test_criterion_11_cli_determinism(tmp_path):
    chain = ChainParameters(j_over_kb=3.1, g_factor=2.1, lattice_c=5.32)
    starykh = StarykhParams(a_starykh=0.00065, t0_kelvin=math.pi * 3.1 / 8, j_over_kb=3.1)
    cfg = SynthConfig(
        q_axis=np.linspace(0.15, 1.5, 24),
        e_axis=np.linspace(-0.195, 1.005, 49),
        chi_temperatures=np.geomspace(0.5, 300.0, 40),
        elastic_amplitude=100.0,
        flat_background=2.0,
        noise_level=1.0,
        chi_noise_level=0.005,
    )
    data = generate_synthetic_dataset(chain, starykh, [0.2], tmp_path / "data", config=cfg)
    chi_csv = data["chi_csv"]
    manifest = data["spectra"][0]["manifest"]

    t = np.arange(0.5, 8.0, 0.01)
    witness_csv = tmp_path / "witness_chi.csv"
    write_susceptibility_csv(
        witness_csv, SusceptibilityCurve(t, chi_bonner_fisher(t, chain), np.zeros_like(t))
    )

    commands = {
        "fit-susceptibility": ["fit-susceptibility", chi_csv],
        "witness": ["witness", str(witness_csv), "--g", "2.1"],
        "qfi-model": ["qfi", "--model", "--policy", "absolute-value"],
        "qfi-data": ["qfi", "--data", manifest],
        "spinon": ["spinon", "--data", manifest, "--j-kelvin", "3.1"],
        "synth": ["synth", "--temps", "0.2", "--seed", "11", "--noise", "1.0"],
    }
    all_ok = True
    for name, argv in commands.items():
        out_a = tmp_path / f"{name}-a"
        out_b = tmp_path / f"{name}-b"
        code_a = main(argv + ["--out", str(out_a), "--deterministic"])
        code_b = main(argv + ["--out", str(out_b), "--deterministic"])
        identical = _tree_bytes(out_a) == _tree_bytes(out_b)
        all_ok = all_ok and code_a == 0 and code_b == 0 and identical
        assert code_a == 0 and code_b == 0, f"{name} failed"
        assert identical, f"{name} outputs differ between runs"
    report(11, all_ok, "all CLI commands byte-identical across two --deterministic runs")
