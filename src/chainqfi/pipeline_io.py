"""Data ingestion, reduction steps, synthetic-data generation, and run
manifests.

File formats (UTF-8 CSV, decimal point, no thousands separators):

* ``chi.csv``: header ``T_K,chi_emu_per_mol,sigma``, one point per row.
* ``sqe.csv``: header ``Q_invA,E_meV,intensity,error``, long format,
  rectangular completeness required.
* ``manifest.json``: keys {sample, temperature_K, resolution_fwhm_meV,
  q_window, lattice_c_A, calibration, policies, inputs}.

Floats are written with ``repr`` so write-then-read round-trips are
bit-exact.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import dynamics, spinon
from .core import (
    DEFAULT_UNITS,
    ChainParameters,
    EnergyCut,
    SpectrumGrid,
    UnitSystem,
)
from .dynamics import StarykhParams
from .errors import (
    DuplicateAbscissa,
    ElasticWindowMissing,
    EmptyFile,
    IncompleteGrid,
    ParseError,
    WindowOutsideGrid,
)
from .suscept import SusceptibilityCurve, chi_full

__all__ = [
    "DatasetManifest",
    "sha256_of",
    "read_susceptibility_csv",
    "write_susceptibility_csv",
    "read_spectrum_csv",
    "write_spectrum_csv",
    "integrate_q_window",
    "subtract_elastic_line",
    "apply_fluctuation_dissipation",
    "SynthConfig",
    "generate_synthetic_dataset",
]

CHI_HEADER = ["T_K", "chi_emu_per_mol", "sigma"]
SQE_HEADER = ["Q_invA", "E_meV", "intensity", "error"]

MANIFEST_KEYS = (
    "sample",
    "temperature_K",
    "resolution_fwhm_meV",
    "q_window",
    "lattice_c_A",
    "calibration",
    "policies",
    "inputs",
)


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class DatasetManifest:
    """Provenance and reduction settings for one measured dataset."""

    sample: str
    temperature_K: float
    resolution_fwhm_meV: float
    q_window: tuple[float, float]
    lattice_c_A: float | None = None
    calibration: float = 1.0
    policies: dict = field(
        default_factory=lambda: {
            "negative_log_policy": "strict",
            "clip_negative_chi_imag": True,
        }
    )
    inputs: list[dict] = field(default_factory=list)

    def __post_init__(self):
        lo, hi = self.q_window
        if not (lo < hi):
            raise ValueError(f"q_window must satisfy min < max, got {self.q_window}")
        if not (self.resolution_fwhm_meV > 0):
            raise ValueError("resolution_fwhm_meV must be positive")
        for entry in self.inputs:
            if "path" not in entry or "sha256" not in entry:
                raise ValueError("every manifest input needs 'path' and 'sha256'")

    def to_dict(self) -> dict:
        return {
            "sample": self.sample,
            "temperature_K": self.temperature_K,
            "resolution_fwhm_meV": self.resolution_fwhm_meV,
            "q_window": list(self.q_window),
            "lattice_c_A": self.lattice_c_A,
            "calibration": self.calibration,
            "policies": dict(self.policies),
            "inputs": [dict(entry) for entry in self.inputs],
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        missing = [k for k in MANIFEST_KEYS if k not in data]
        if missing:
            raise ParseError(f"manifest {path} missing keys {missing}")
        return cls(
            sample=data["sample"],
            temperature_K=float(data["temperature_K"]),
            resolution_fwhm_meV=float(data["resolution_fwhm_meV"]),
            q_window=tuple(float(v) for v in data["q_window"]),
            lattice_c_A=None if data["lattice_c_A"] is None else float(data["lattice_c_A"]),
            calibration=float(data["calibration"]),
            policies=dict(data["policies"]),
            inputs=[dict(e) for e in data["inputs"]],
        )


def _parse_float(token: str, line_no: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"cannot parse {column}={token!r} as a number", line=line_no)
    if not math.isfinite(value):
        raise ParseError(f"{column}={token!r} is not finite", line=line_no)
    return value


def read_susceptibility_csv(path) -> SusceptibilityCurve:
    """Read a chi(T) curve; rows are sorted by temperature on return."""
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise EmptyFile(f"{path} is empty")
    if [c.strip() for c in rows[0]] != CHI_HEADER:
        raise ParseError(
            f"expected header {','.join(CHI_HEADER)!r}, got {','.join(rows[0])!r}", line=1
        )
    if len(rows) == 1:
        raise EmptyFile(f"{path} has a header but no data rows")
    records = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", line=line_no)
        t = _parse_float(row[0], line_no, "T_K")
        chi = _parse_float(row[1], line_no, "chi_emu_per_mol")
        sigma = _parse_float(row[2], line_no, "sigma")
        if t <= 0:
            raise ParseError(f"temperature must be positive, got {t}", line=line_no)
        if sigma < 0:
            raise ParseError(f"sigma must be nonnegative, got {sigma}", line=line_no)
        records.append((t, chi, sigma))
    records.sort(key=lambda r: r[0])
    temps = [r[0] for r in records]
    if len(set(temps)) != len(temps):
        dupes = sorted({t for t in temps if temps.count(t) > 1})
        raise DuplicateAbscissa(f"duplicate temperatures in {path}: {dupes}")
    arr = np.asarray(records, dtype=float)
    return SusceptibilityCurve(temperatures=arr[:, 0], chi=arr[:, 1], sigma=arr[:, 2])


def write_susceptibility_csv(path, curve: SusceptibilityCurve) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CHI_HEADER) + "\n")
        for t, chi, sigma in zip(curve.temperatures, curve.chi, curve.sigma):
            fh.write(f"{float(t)!r},{float(chi)!r},{float(sigma)!r}\n")


def read_spectrum_csv(path, manifest: DatasetManifest) -> SpectrumGrid:
    """Read a long-format S(Q,E) grid; the rectangular grid must be complete."""
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise EmptyFile(f"{path} is empty")
    if [c.strip() for c in rows[0]] != SQE_HEADER:
        raise ParseError(
            f"expected header {','.join(SQE_HEADER)!r}, got {','.join(rows[0])!r}", line=1
        )
    cells: dict[tuple[float, float], tuple[float, float]] = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}", line=line_no)
        q = _parse_float(row[0], line_no, "Q_invA")
        e = _parse_float(row[1], line_no, "E_meV")
        inten = _parse_float(row[2], line_no, "intensity")
        err = _parse_float(row[3], line_no, "error")
        if err < 0:
            raise ParseError(f"error must be nonnegative, got {err}", line=line_no)
        key = (q, e)
        if key in cells:
            previous = cells[key]
            detail = (
                "ambiguous duplicate (values differ)"
                if previous != (inten, err)
                else "duplicate cell"
            )
            raise ParseError(f"cell Q={q!r}, E={e!r} repeated: {detail}", line=line_no)
        cells[key] = (inten, err)
    q_axis = np.array(sorted({q for q, _ in cells}))
    e_axis = np.array(sorted({e for _, e in cells}))
    expected = q_axis.size * e_axis.size
    if len(cells) != expected:
        raise IncompleteGrid(
            f"{path}: {len(cells)} cells for a {e_axis.size} x {q_axis.size} grid "
            f"({expected} expected)"
        )
    intensity = np.empty((e_axis.size, q_axis.size))
    errors = np.empty_like(intensity)
    for i, e in enumerate(e_axis):
        for j, q in enumerate(q_axis):
            try:
                intensity[i, j], errors[i, j] = cells[(q, e)]
            except KeyError:
                raise IncompleteGrid(f"{path}: missing cell Q={q!r}, E={e!r}")
    return SpectrumGrid(
        q_axis=q_axis,
        e_axis=e_axis,
        intensity=intensity,
        errors=errors,
        temperature=manifest.temperature_K,
    )


def write_spectrum_csv(path, grid: SpectrumGrid) -> None:
    """One row per (E, Q) cell, E outer, each float in its shortest repr."""
    q_reprs = [repr(q) for q in grid.q_axis.tolist()]
    lines = [",".join(SQE_HEADER) + "\n"]
    for e, row, err_row in zip(
        grid.e_axis.tolist(), grid.intensity.tolist(), grid.errors.tolist()
    ):
        e_repr = repr(e)
        lines += [f"{q},{e_repr},{v!r},{err!r}\n" for q, v, err in zip(q_reprs, row, err_row)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.zeros_like(x)
    w[:-1] += 0.5 * np.diff(x)
    w[1:] += 0.5 * np.diff(x)
    return w


def integrate_q_window(grid: SpectrumGrid, q_min: float, q_max: float) -> EnergyCut:
    """Trapezoid integration over momentum within [q_min, q_max] per energy."""
    if not (q_min < q_max):
        raise ValueError(f"q_min must be below q_max, got [{q_min}, {q_max}]")
    sel = (grid.q_axis >= q_min) & (grid.q_axis <= q_max)
    if np.count_nonzero(sel) < 2:
        raise WindowOutsideGrid(
            f"window [{q_min}, {q_max}] covers {np.count_nonzero(sel)} grid points "
            f"of q in [{grid.q_axis[0]}, {grid.q_axis[-1]}]; need at least 2"
        )
    q = grid.q_axis[sel]
    w = _trapezoid_weights(q)
    values = grid.intensity[:, sel] @ w
    errors = np.sqrt((grid.errors[:, sel] ** 2) @ (w**2))
    return EnergyCut(
        e_axis=grid.e_axis, values=values, errors=errors, temperature=grid.temperature
    )


def subtract_elastic_line(
    cut: EnergyCut,
    resolution_fwhm: float,
    record: dict | None = None,
) -> EnergyCut:
    """Fit and remove the elastic line: a Gaussian of fixed resolution width
    centered at E = 0 plus a flat constant.

    The fit window is |E| <= 2 FWHM, augmented with the top 10% highest-E
    bins to anchor the flat level. The fitted amplitude and constant are
    stored in ``record`` when a dict is supplied.
    """
    if not (resolution_fwhm > 0):
        raise ValueError("resolution_fwhm must be positive")
    e = cut.e_axis
    if not (e[0] <= 0.0 <= e[-1]):
        raise ElasticWindowMissing(
            f"energy axis [{e[0]}, {e[-1]}] meV does not span the elastic line at 0"
        )
    window = np.abs(e) <= 2.0 * resolution_fwhm
    if np.count_nonzero(window) < 3:
        raise ElasticWindowMissing(
            f"fewer than 3 bins within |E| <= {2 * resolution_fwhm:g} meV"
        )
    n_anchor = max(1, int(math.ceil(0.1 * e.size)))
    anchor = np.zeros_like(window)
    anchor[np.argsort(e)[-n_anchor:]] = True
    sel = window | anchor

    sigma_g = resolution_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    gauss = np.exp(-0.5 * (e / sigma_g) ** 2)
    weights = 1.0 / np.where(cut.errors[sel] > 0, cut.errors[sel], 1.0)
    design = np.column_stack((gauss[sel], np.ones(np.count_nonzero(sel))))
    coeffs, *_ = np.linalg.lstsq(design * weights[:, None], cut.values[sel] * weights, rcond=None)
    amplitude, constant = float(coeffs[0]), float(coeffs[1])
    if record is not None:
        record["elastic_amplitude"] = amplitude
        record["elastic_constant"] = constant
    return EnergyCut(
        e_axis=e,
        values=cut.values - (amplitude * gauss + constant),
        errors=cut.errors,
        temperature=cut.temperature,
    )


def apply_fluctuation_dissipation(
    cut: EnergyCut, units: UnitSystem = DEFAULT_UNITS
) -> EnergyCut:
    """Convert an S(E) cut to chi''(E) bin by bin; errors scale with the factor."""
    factor = -np.expm1(
        -cut.e_axis / (units.boltzmann_mev_per_kelvin * cut.temperature)
    )
    return EnergyCut(
        e_axis=cut.e_axis,
        values=factor * cut.values,
        errors=np.abs(factor) * cut.errors,
        temperature=cut.temperature,
    )


@dataclass
class SynthConfig:
    """Knobs of the synthetic dataset generator.

    ``noise_level`` scales the counting noise (0 disables it);
    ``counts_scale`` converts model intensity to detector counts. The
    momentum envelope of the synthetic 1D signal is a pair of Gaussians
    (even in q) centered at the antiferromagnetic zone center pi/c.
    """

    sample: str = "synthetic-chain"
    seed: int = 0
    noise_level: float = 0.0
    counts_scale: float = 1.0e4
    q_axis: np.ndarray = field(
        default_factory=lambda: np.linspace(0.15, 1.5, 55)
    )
    e_axis: np.ndarray = field(
        default_factory=lambda: np.linspace(-0.195, 1.005, 121)
    )
    chi_temperatures: np.ndarray = field(
        default_factory=lambda: np.geomspace(0.5, 300.0, 80)
    )
    chi_noise_level: float = 0.0
    q_window: tuple[float, float] = (0.4, 1.1)
    envelope_width: float = 0.25
    elastic_amplitude: float = 0.0
    flat_background: float = 0.0
    resolution_fwhm: float = 0.0175


def _magnetic_sqw(
    e: np.ndarray, t: float, params: StarykhParams, units: UnitSystem
) -> np.ndarray:
    """S(E) on an energy axis, with its finite limit at E = 0."""
    out = np.empty(e.shape)
    nonzero = e != 0.0
    out[nonzero] = dynamics.sqw_starykh(e[nonzero], t, params, units)
    if not nonzero.all():
        # limit of chi''/(1 - exp(-E/kT)) at E = 0: kT * d(chi'')/dE, by a
        # central difference; chi'' is odd, so (chi(h) - chi(-h)) / 2h = chi(h) / h
        h = 1e-6
        slope = dynamics.chi_imag_starykh(h, t, params, units) / h
        out[~nonzero] = units.boltzmann_mev_per_kelvin * t * slope
    return out


def generate_synthetic_dataset(
    chain: ChainParameters,
    starykh: StarykhParams,
    temperatures: Sequence[float],
    outdir,
    config: SynthConfig | None = None,
    units: UnitSystem = DEFAULT_UNITS,
) -> dict:
    """Write a deterministic synthetic dataset: one chi.csv plus one
    spectrum CSV and manifest per temperature.

    The spectrum is a separable 1D model, envelope(q) * S(E, T), pushed
    through the exact powder average, plus an optional elastic line and
    flat background. Each manifest's ``calibration`` field holds the exact
    factor between the Q-window-integrated chi'' cut and the chain model
    chi'', so the analysis pipeline can recover the generation parameters.

    Returns a dict of written paths and the generation record.
    """
    cfg = config or SynthConfig()
    if chain.lattice_c is None:
        raise ValueError("chain.lattice_c is required to place the zone center")
    for t in temperatures:
        if not (t > 0):
            raise ValueError(f"temperatures must be positive, got {t}")
        dynamics.scaling_dimension(t, starykh)  # raises CutoffDomainError early

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.Philox(cfg.seed))

    # susceptibility curve
    chi_t = np.asarray(cfg.chi_temperatures, dtype=float)
    chi_clean = chi_full(chi_t, chain, units)
    sigma = cfg.chi_noise_level * np.abs(chi_clean)
    chi_noisy = chi_clean + rng.normal(size=chi_t.size) * sigma
    curve = SusceptibilityCurve(temperatures=chi_t, chi=chi_noisy, sigma=sigma)
    chi_path = outdir / "chi.csv"
    write_susceptibility_csv(chi_path, curve)

    q_zc = math.pi / chain.lattice_c

    def envelope(q):
        w = cfg.envelope_width
        return np.exp(-0.5 * ((q - q_zc) / w) ** 2) + np.exp(-0.5 * ((q + q_zc) / w) ** 2)

    # powder average of the envelope alone (separability makes this exact)
    env_grid = spinon.forward_powder_average(
        lambda q, e: envelope(q), cfg.q_axis, [0.0], temperature=1.0
    )
    env_pwd = env_grid.intensity[0]

    sel = (np.asarray(cfg.q_axis) >= cfg.q_window[0]) & (
        np.asarray(cfg.q_axis) <= cfg.q_window[1]
    )
    window_weight = float(_trapezoid_weights(np.asarray(cfg.q_axis)[sel]) @ env_pwd[sel])

    sigma_g = cfg.resolution_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    written = {"chi_csv": str(chi_path), "spectra": []}
    for t in temperatures:
        sqw_e = _magnetic_sqw(np.asarray(cfg.e_axis, dtype=float), t, starykh, units)
        counts = cfg.counts_scale * np.outer(sqw_e, env_pwd)
        counts += cfg.elastic_amplitude * np.exp(
            -0.5 * (np.asarray(cfg.e_axis) / sigma_g) ** 2
        )[:, None]
        counts += cfg.flat_background
        errors = np.sqrt(np.maximum(counts, 1.0))
        if cfg.noise_level > 0:
            counts = counts + cfg.noise_level * rng.normal(size=counts.shape) * errors
        grid = SpectrumGrid(
            q_axis=cfg.q_axis,
            e_axis=cfg.e_axis,
            intensity=counts,
            errors=errors,
            temperature=t,
        )
        tag = f"{t:g}".replace(".", "p")
        sqe_path = outdir / f"sqe_T{tag}.csv"
        write_spectrum_csv(sqe_path, grid)
        manifest = DatasetManifest(
            sample=cfg.sample,
            temperature_K=float(t),
            resolution_fwhm_meV=cfg.resolution_fwhm,
            q_window=cfg.q_window,
            lattice_c_A=chain.lattice_c,
            calibration=cfg.counts_scale * window_weight,
            policies={
                "negative_log_policy": starykh.negative_log_policy,
                "clip_negative_chi_imag": True,
                "elastic_amplitude": cfg.elastic_amplitude,
                "flat_background": cfg.flat_background,
            },
            inputs=[{"path": sqe_path.name, "sha256": sha256_of(sqe_path)}],
        )
        manifest_path = outdir / f"manifest_T{tag}.json"
        manifest.save(manifest_path)
        written["spectra"].append(
            {"sqe_csv": str(sqe_path), "manifest": str(manifest_path)}
        )

    generation = {
        "sample": cfg.sample,
        "seed": cfg.seed,
        "noise_level": cfg.noise_level,
        "chi_noise_level": cfg.chi_noise_level,
        "counts_scale": cfg.counts_scale,
        "chain": {
            "j_over_kb": chain.j_over_kb,
            "g_factor": chain.g_factor,
            "spin": chain.spin,
            "c0": chain.c0,
            "c1": chain.c1,
            "lattice_c": chain.lattice_c,
        },
        "starykh": {
            "a_starykh": starykh.a_starykh,
            "t0_kelvin": starykh.t0_kelvin,
            "j_over_kb": starykh.j_over_kb,
            "negative_log_policy": starykh.negative_log_policy,
        },
        "temperatures": [float(t) for t in temperatures],
        "q_window": list(cfg.q_window),
        "envelope_width": cfg.envelope_width,
        "elastic_amplitude": cfg.elastic_amplitude,
        "flat_background": cfg.flat_background,
        "resolution_fwhm": cfg.resolution_fwhm,
        "files": [
            {"path": os.path.basename(p), "sha256": sha256_of(p)}
            for p in [written["chi_csv"]]
            + [s["sqe_csv"] for s in written["spectra"]]
        ],
    }
    gen_path = outdir / "generation.json"
    with open(gen_path, "w", encoding="utf-8") as fh:
        json.dump(generation, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written["generation"] = str(gen_path)
    return written
