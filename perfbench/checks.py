"""Output checks, fingerprints and the parameter-recovery readout.

Each chainqfi command invocation is one operation. It fails when it exits
non-zero or leaves a traceback on stderr, when an expected output file is
missing or does not parse, or when a physics check misses. The physics
oracles do not use chainqfi:

* qfi --model: F_Q agrees with the mpmath reference (reference.py) to 1e-8;
* witness: T_SE is 4.43 +- 0.02 K on the noiseless chi(T) of J = 3.1 K;
* fit-susceptibility with g frozen: J is 3.1 K within 1e-3 relative;
* spinon: the zone-center upper bound equals pi J k_B, and s1d.csv is a
  finite 55 x 121 grid;
* qfi --data: every F_Q is finite and positive.

Only the standard library is used, so checking costs the measured
processes nothing.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import workloads

FQ_RTOL = 1e-8
T_SE_K, T_SE_TOL = 4.43, 0.02
J_RTOL = 1e-3
GRID_Q, GRID_E = 55, 121
SYNTH_CHI_ROWS = 80


def _csv(path: Path, header: list[str]) -> list[list[float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != header:
        raise ValueError(f"{path.name}: header {rows[0]} != {header}")
    values = [[float(v) for v in row] for row in rows[1:]]
    if not values or not all(len(r) == len(header) for r in values):
        raise ValueError(f"{path.name}: empty or ragged")
    if not all(math.isfinite(v) for r in values for v in r):
        raise ValueError(f"{path.name}: non-finite value")
    return values


def _json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _svg(path: Path) -> None:
    if not ET.parse(path).getroot().tag.endswith("svg"):
        raise ValueError(f"{path.name}: root element is not <svg>")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def _grid(rows: list[list[float]], name: str) -> None:
    q = {r[0] for r in rows}
    e = {r[1] for r in rows}
    if (len(q), len(e), len(rows)) != (GRID_Q, GRID_E, GRID_Q * GRID_E):
        raise ValueError(f"{name}: {len(q)} x {len(e)} grid with {len(rows)} rows, "
                         f"expected {GRID_Q} x {GRID_E}")


def _check_synth(cmd: dict, out: Path, ref: dict) -> None:
    if len(_csv(out / "chi.csv", ["T_K", "chi_emu_per_mol", "sigma"])) != SYNTH_CHI_ROWS:
        raise ValueError("chi.csv: wrong row count")
    _json(out / "generation.json")
    for t in cmd["temps"]:
        sqe = out / f"sqe_T{workloads.tag(t)}.csv"
        _grid(_csv(sqe, ["Q_invA", "E_meV", "intensity", "error"]), sqe.name)
        manifest = _json(out / f"manifest_T{workloads.tag(t)}.json")
        if manifest["inputs"][0]["sha256"] != _sha256(sqe):
            raise ValueError(f"{sqe.name}: sha256 differs from its manifest")


def _check_fit(cmd: dict, out: Path, ref: dict) -> None:
    _svg(out / "chi_fit.svg")
    j = _json(out / "fit_report.json")["fit"]["parameters"]["j_over_kb"]
    if not _close(j, workloads.J_KELVIN, J_RTOL):
        raise ValueError(f"fitted J = {j} K, expected {workloads.J_KELVIN} K")


def _check_witness(cmd: dict, out: Path, ref: dict) -> None:
    _svg(out / "witness.svg")
    _csv(out / "witness.csv", ["T_K", "MW_SE"])
    t_se = _json(out / "witness_report.json")["t_se_K"]
    if t_se is None or abs(t_se - T_SE_K) > T_SE_TOL:
        raise ValueError(f"T_SE = {t_se} K, expected {T_SE_K} +- {T_SE_TOL} K")


def _qfi_points(cmd: dict, out: Path) -> list[list[float]]:
    _svg(out / "chi_imag.svg")
    _svg(out / "qfi_scaling.svg")
    _json(out / "qfi_report.json")
    points = _csv(out / "qfi_points.csv", ["T_K", "F_Q", "err"])
    if [p[0] for p in points] != [float(t) for t in cmd["temps"]]:
        raise ValueError("qfi_points.csv: temperatures differ from the command's")
    return points


def _check_qfi_model(cmd: dict, out: Path, ref: dict) -> None:
    for t, (_, f_q, _) in zip(cmd["temps"], _qfi_points(cmd, out)):
        if not _close(f_q, ref[t], FQ_RTOL):
            raise ValueError(f"F_Q({t} K) = {f_q!r}, mpmath reference {ref[t]!r}")


def _check_qfi_data(cmd: dict, out: Path, ref: dict) -> None:
    _json(out / "fit_report.json")
    for t, f_q, _ in _qfi_points(cmd, out):
        if not f_q > 0:
            raise ValueError(f"F_Q({t} K) = {f_q!r} is not positive")


def _check_spinon(cmd: dict, out: Path, ref: dict) -> None:
    _svg(out / "spinon_overlay.svg")
    _grid(_csv(out / "s1d.csv", ["Q_invA", "E_meV", "intensity", "error"]), "s1d.csv")
    upper = _json(out / "spinon_report.json")["upper_bound_at_zone_center_meV"]
    expected = math.pi * workloads.J_KELVIN * workloads.BOLTZMANN_MEV_PER_K
    if not _close(upper, expected, 1e-12):
        raise ValueError(f"upper bound {upper!r} meV != pi J k_B = {expected!r} meV")


CHECKS = {
    "synth": _check_synth,
    "fit_susceptibility": _check_fit,
    "witness": _check_witness,
    "qfi_model": _check_qfi_model,
    "qfi_data": _check_qfi_data,
    "spinon": _check_spinon,
}


def fingerprint(out: Path) -> dict[str, str]:
    """SHA-256 of every file a command wrote, by path relative to its output directory."""
    return {str(p.relative_to(out)): _sha256(p)
            for p in sorted(out.rglob("*")) if p.is_file()}


def check(cmd: dict, rc, stderr: str, traceback: str, passdir: Path, ref: dict) -> str | None:
    """Return why the operation failed, or None when it passed."""
    if traceback or "Traceback (most recent call last)" in stderr:
        return "traceback: " + (traceback or stderr).strip().splitlines()[-1]
    if rc != 0:
        return f"exit code {rc}: {stderr.strip()[:300]}"
    try:
        CHECKS[cmd["kind"]](cmd, passdir / cmd["out"], ref)
    except (OSError, ValueError, KeyError, IndexError, TypeError, ET.ParseError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def recovery(passdir: Path, data_dir: Path, ref: dict) -> dict:
    """Relative errors of the qfi --data fit against the generation parameters.

    A readout, not a gate: the fit is known to be biased (see the record).
    """
    gen = _json(data_dir / "generation.json")
    report = _json(passdir / "out" / "qfi_data" / "qfi_report.json")
    fitted = report["starykh_fit"]["parameters"]
    truth = gen["starykh"]
    elastic = {f"{r['temperature_K']:g}": r["elastic_amplitude"]
               for r in report["elastic_subtraction"]}
    return {
        "a_starykh": {"fitted": fitted["a_starykh"], "generated": truth["a_starykh"],
                      "rel_error": fitted["a_starykh"] / truth["a_starykh"] - 1},
        "t0_kelvin": {"fitted": fitted["t0_kelvin"], "generated": truth["t0_kelvin"],
                      "rel_error": fitted["t0_kelvin"] / truth["t0_kelvin"] - 1},
        "f_q_data_over_model_minus_1": {f"{p['T_K']:g}": p["F_Q"] / ref[f"{p['T_K']:g}"] - 1
                                        for p in report["points"]},
        "elastic_amplitude_fitted": elastic,
        "elastic_amplitude_generated": gen["elastic_amplitude"],
    }
