"""Data ingestion, reduction steps, synthetic-data generation, run
manifests, and ``write_outputs``, the one writer of every command's files.

File formats (UTF-8 CSV, decimal point, no thousands separators):

* ``chi.csv``: header ``T_K,chi_emu_per_mol,sigma``, one point per row.
* ``sqe.csv``: header ``Q_invA,E_meV,intensity,error``, long format,
  rectangular completeness required.
* ``manifest.json``: keys {sample, temperature_K, resolution_fwhm_meV,
  q_window, lattice_c_A, calibration, policies, inputs}, each checked
  against ``_MANIFEST_RULES``; ``inputs`` names exactly one spectrum.

Floats are written with ``repr`` so write-then-read round-trips are
bit-exact.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import dynamics, fitter, spinon
from .core import ChainParameters, EnergyCut, SpectrumGrid, _is_number, _is_positive, _positive
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
from .svgplot import Figure

__all__ = [
    "DatasetManifest",
    "Dataset",
    "load_dataset",
    "reduce_to_chi_imag",
    "sha256_of",
    "file_record",
    "write_json",
    "csv_table_text",
    "write_outputs",
    "read_susceptibility_csv",
    "write_susceptibility_csv",
    "read_spectrum_csv",
    "write_spectrum_csv",
    "integrate_q_window",
    "subtract_elastic_line",
    "apply_fluctuation_dissipation",
    "SynthConfig",
    "synthetic_dataset",
    "generate_synthetic_dataset",
]

CHI_HEADER = ["T_K", "chi_emu_per_mol", "sigma"]
SQE_HEADER = ["Q_invA", "E_meV", "intensity", "error"]


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def file_record(path) -> dict:
    """The provenance record ``{path, sha256}`` of the file at ``path``."""
    return {"path": str(path), "sha256": sha256_of(path)}


def _write_lines(path, lines) -> str:
    """Write each string of ``lines`` in turn: UTF-8, newlines as given.
    Returns the SHA-256 of the bytes written."""
    h = hashlib.sha256()
    with open(path, "wb") as fh:
        for line in lines:
            data = line.encode("utf-8")
            h.update(data)
            fh.write(data)
    return h.hexdigest()


def write_json(path, payload) -> str:
    """``payload`` as JSON with sorted keys, 2-space indent and a final
    newline; returns the file's SHA-256."""
    return _write_lines(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def csv_table_text(header: Sequence[str], *columns) -> str:
    """A header line, then one row per index of the equal-length
    ``columns``, each value as the shortest ``repr`` of its float."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return "".join([",".join(header) + "\n", *(",".join(map(repr, row)) + "\n" for row in rows)])


def write_outputs(outdir, outputs: dict, stamp: str | None) -> dict:
    """Create ``outdir`` and write each ``{file name: content}`` entry into it,
    in order: text as it is, a dict as JSON, a SpectrumGrid as a spectrum
    CSV, a Figure as SVG stamped with ``stamp``. A callable entry is called
    with the hashes of the files written before it, and its result written.
    Returns ``{file name: sha256}`` of every file but the SVGs."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for name, content in outputs.items():
        path = outdir / name
        if callable(content):
            content = content(hashes)
        if isinstance(content, Figure):
            content.render(path, timestamp=stamp)
        elif isinstance(content, SpectrumGrid):
            hashes[name] = write_spectrum_csv(path, content)
        elif isinstance(content, str):
            hashes[name] = _write_lines(path, [content])
        else:
            hashes[name] = write_json(path, content)
    return hashes


# field -> (what it must be, check); every manifest field is checked
_MANIFEST_RULES = {
    "sample": ("a string", lambda v: isinstance(v, str)),
    "temperature_K": ("a finite number > 0", _is_positive),
    "resolution_fwhm_meV": ("a finite number > 0", _is_positive),
    "q_window": (
        "two increasing finite numbers",
        lambda v: isinstance(v, (list, tuple))
        and len(v) == 2
        and all(map(_is_number, v))
        and v[0] < v[1],
    ),
    "lattice_c_A": ("null or a finite number > 0", lambda v: v is None or _is_positive(v)),
    "calibration": ("a finite number > 0", _is_positive),
    "policies": (
        f"an object whose negative_log_policy is one of {dynamics.POLICIES} and whose "
        "clip_negative_chi_imag, if set, is true (negative chi'' is always clipped)",
        lambda v: isinstance(v, dict)
        and v.get("negative_log_policy", "strict") in dynamics.POLICIES
        and v.get("clip_negative_chi_imag", True) is True,
    ),
    "inputs": (
        "a list of objects with a string 'path' and 'sha256'",
        lambda v: isinstance(v, list)
        and all(
            isinstance(e, dict) and isinstance(e.get("path"), str)
            and isinstance(e.get("sha256"), str)
            for e in v
        ),
    ),
}


@dataclass
class DatasetManifest:
    """Provenance and reduction settings for one measured dataset.

    Construction checks every field against ``_MANIFEST_RULES``; ``load``
    also requires exactly one entry in ``inputs`` and reports any fault as
    a :class:`ParseError` naming the file and the field.
    """

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
        for name, (rule, check) in _MANIFEST_RULES.items():
            if not check(getattr(self, name)):
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        for name in ("temperature_K", "resolution_fwhm_meV", "calibration"):
            setattr(self, name, float(getattr(self, name)))
        if self.lattice_c_A is not None:
            self.lattice_c_A = float(self.lattice_c_A)
        self.q_window = tuple(float(v) for v in self.q_window)

    def save(self, path) -> None:
        write_json(path, asdict(self))

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise TypeError("the manifest must be a JSON object")
            missing = [k for k in _MANIFEST_RULES if k not in data]
            if missing:
                raise ValueError(f"missing keys {missing}")
            manifest = cls(**{k: data[k] for k in _MANIFEST_RULES})
            if len(manifest.inputs) != 1:
                raise ValueError(
                    f"inputs must hold exactly one entry, got {len(manifest.inputs)}"
                )
        except (ValueError, TypeError) as exc:
            raise ParseError(f"manifest {path}: {exc}") from None
        return manifest


class Dataset(NamedTuple):
    """A manifest, its spectrum, and the spectrum's verified provenance record."""

    manifest: DatasetManifest
    grid: SpectrumGrid
    spectrum_record: dict


def load_dataset(manifest_path) -> Dataset:
    """Read a manifest, check its one input against the recorded sha256,
    and read that spectrum."""
    manifest = DatasetManifest.load(manifest_path)
    entry = manifest.inputs[0]
    spectrum_path = Path(manifest_path).parent / entry["path"]
    record = file_record(spectrum_path)
    if record["sha256"] != entry["sha256"]:
        raise ParseError(
            f"{spectrum_path} does not match the sha256 recorded in {manifest_path}"
        )
    return Dataset(manifest, read_spectrum_csv(spectrum_path, manifest), record)


def _read_text(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", path=path) from None


def _csv_rows(text: str):
    """(file line, cells) of each CSV row of ``text`` that is not blank; a
    row is blank when every cell is whitespace."""
    reader = csv.reader(io.StringIO(text))
    for row in reader:
        # the first cell decides most rows
        if row and (row[0].strip() or any(map(str.strip, row))):
            yield reader.line_num, row


def _data_line(path, k: int) -> int:
    """The file line of data row ``k`` (0-based, blank rows not counted);
    the readers call it only to report a fault."""
    rows = _csv_rows(_read_text(path))
    next(rows)  # the header
    return next(itertools.islice(rows, k, None))[0]


def _loadtxt_table(path, header: list[str]) -> np.ndarray | None:
    """The data rows under ``header`` parsed by ``np.loadtxt`` from the open
    file, one line at a time; None where the csv walk must decide."""
    with open(path, encoding="utf-8") as fh:
        # loadtxt parses exactly as float() or refuses (quotes, digit
        # separators, non-ASCII digits, whitespace-only rows), as the decoder
        # refuses bytes that are not UTF-8; a refusal falls through to the csv
        # walk, which decides and reports
        try:
            if fh.readline() != ",".join(header) + "\n":
                return None
            # the csv walk skips blank rows too; with no row left, loadtxt
            # would warn that the input holds no data
            rows = itertools.dropwhile(str.isspace, fh)
            first = next(rows, None)
            if first is None:
                return None
            table = np.loadtxt(
                itertools.chain((first,), rows), delimiter=",", comments=None,
                quotechar=None, ndmin=2, dtype=float,
            )
        except ValueError:
            return None
    return table if table.shape[1] == len(header) and np.isfinite(table).all() else None


def _read_table(path, header: list[str]) -> np.ndarray:
    """The data rows under ``header`` as an (n, k) array of finite floats.
    Blank rows are skipped; a fault names its line in the file."""
    table = _loadtxt_table(path, header)
    if table is not None:
        return table
    rows = _csv_rows(_read_text(path))
    line, head = next(rows, (None, None))
    if head is None:
        raise EmptyFile(f"{path} is empty")
    fault = functools.partial(ParseError, path=path)
    if [c.strip() for c in head] != header:
        raise fault(f"expected header {','.join(header)!r}, got {','.join(head)!r}", line=line)
    k, values = len(header), []
    for line, row in rows:
        if len(row) != k:
            raise fault(f"expected {k} fields, got {len(row)}", line=line)
        for column, token in zip(header, row):
            try:
                value = float(token)
            except ValueError:
                raise fault(f"cannot parse {column}={token!r} as a number", line=line) from None
            if not math.isfinite(value):
                raise fault(f"{column}={token!r} is not finite", line=line)
            values.append(value)
    return np.array(values, dtype=float).reshape(-1, k)


def _read_data(path, header: list[str]) -> np.ndarray:
    """``_read_table``, refusing a file with a header but no data rows."""
    table = _read_table(path, header)
    if len(table) == 0:
        raise EmptyFile(f"{path} has a header but no data rows")
    return table


def read_susceptibility_csv(path) -> SusceptibilityCurve:
    """Read a chi(T) curve; rows are sorted by temperature on return."""
    table = _read_data(path, CHI_HEADER)
    t, _, sigma = table.T
    bad = np.flatnonzero((t <= 0) | (sigma < 0))
    if bad.size:
        k = int(bad[0])
        message = (
            f"temperature must be positive, got {t[k]}"
            if t[k] <= 0
            else f"sigma must be nonnegative, got {sigma[k]}"
        )
        raise ParseError(message, line=_data_line(path, k), path=path)
    t, chi, sigma = table[np.argsort(t, kind="stable")].T
    repeated = t[1:][t[1:] == t[:-1]]
    if repeated.size:
        dupes = sorted(set(repeated.tolist()))
        raise DuplicateAbscissa(f"duplicate temperatures in {path}: {dupes}")
    return SusceptibilityCurve(temperatures=t, chi=chi, sigma=sigma)


def write_susceptibility_csv(path, curve: SusceptibilityCurve) -> None:
    _write_lines(path, [csv_table_text(CHI_HEADER, curve.temperatures, curve.chi, curve.sigma)])


def read_spectrum_csv(path, manifest: DatasetManifest) -> SpectrumGrid:
    """Read a long-format S(Q,E) grid; the rectangular grid must be complete."""
    table = _read_data(path, SQE_HEADER)
    negative = np.flatnonzero(table[:, 3] < 0)
    if negative.size:
        k = int(negative[0])
        raise ParseError(
            f"error must be nonnegative, got {table[k, 3]}", line=_data_line(path, k), path=path
        )
    # stable sort on (E, Q): equal keys keep file order, so the second row of
    # each adjacent equal pair is a repeat; the one earliest in the file is reported
    order = np.lexsort((table[:, 0], table[:, 1]))
    cells = table[order]
    repeats = np.flatnonzero((cells[1:, :2] == cells[:-1, :2]).all(axis=1))
    if repeats.size:
        i = repeats[np.argmin(order[repeats + 1])]
        q, e = cells[i + 1, :2].tolist()
        same = (cells[i, 2:] == cells[i + 1, 2:]).all()
        detail = "duplicate cell" if same else "ambiguous duplicate (values differ)"
        raise ParseError(
            f"cell Q={q!r}, E={e!r} repeated: {detail}",
            line=_data_line(path, int(order[i + 1])),
            path=path,
        )
    # no repeats, so nq * ne cells leave no cell of the grid missing
    q_axis, e_axis = np.unique(table[:, 0]), np.unique(table[:, 1])
    shape = (e_axis.size, q_axis.size)
    if len(cells) != e_axis.size * q_axis.size:
        raise IncompleteGrid(
            f"{path}: {len(cells)} cells for a {e_axis.size} x {q_axis.size} grid "
            f"({e_axis.size * q_axis.size} expected)"
        )
    return SpectrumGrid(
        q_axis=q_axis,
        e_axis=e_axis,
        intensity=cells[:, 2].reshape(shape),
        errors=cells[:, 3].reshape(shape),
        temperature=manifest.temperature_K,
    )


def _spectrum_csv_rows(grid: SpectrumGrid):
    """The header line, then the lines of one energy row at a time: one line
    per (E, Q) cell, E outer, each float in its shortest repr."""
    q_reprs = [repr(q) for q in grid.q_axis.tolist()]
    yield ",".join(SQE_HEADER) + "\n"
    for e, row, err_row in zip(grid.e_axis.tolist(), grid.intensity, grid.errors):
        e_repr = repr(e)
        yield "".join([
            f"{q},{e_repr},{v!r},{err!r}\n"
            for q, v, err in zip(q_reprs, row.tolist(), err_row.tolist())
        ])


def _spectrum_csv_text(grid: SpectrumGrid) -> str:
    return "".join(_spectrum_csv_rows(grid))


def write_spectrum_csv(path, grid: SpectrumGrid) -> str:
    """Write ``grid`` as a spectrum CSV; returns the file's SHA-256."""
    return _write_lines(path, _spectrum_csv_rows(grid))


def _resolution_line(e: np.ndarray, fwhm: float) -> np.ndarray:
    """The resolution Gaussian of full width ``fwhm`` at half maximum on the
    energy axis ``e``: centred at E = 0, height 1 there."""
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    return np.exp(-0.5 * (e / sigma) ** 2)


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


def _weighted_line_fit(g: np.ndarray, v: np.ndarray, weights: np.ndarray):
    """(amplitude, constant) of the weighted least-squares fit of ``v`` by
    amplitude * ``g`` + constant, from sums centred on the weighted means.
    The weights are scaled to a largest of 1 before squaring, so that no
    sigma overflows or underflows. With every weight 0 there is nothing to
    fit, (0, 0); a ``g`` flat to rounding fits no better than the constant
    alone, (0, the weighted mean of ``v``)."""
    top = weights.max()
    if not top > 0:
        return 0.0, 0.0
    w2 = (weights / top) ** 2
    total = w2.sum()
    g_mean, v_mean = (w2 @ g) / total, (w2 @ v) / total
    dg = g - g_mean
    sgg = float(w2 @ (dg * dg))
    if sgg <= total * (g.size * np.finfo(float).eps * np.abs(g).max()) ** 2:
        return 0.0, float(v_mean)
    amplitude = float(w2 @ (dg * (v - v_mean))) / sgg
    return amplitude, float(v_mean - amplitude * g_mean)


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
    _positive(resolution_fwhm, "resolution_fwhm")
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
    # the energy axis is increasing, so the highest-E bins are the last
    sel = window.copy()
    sel[-max(1, int(math.ceil(0.1 * e.size))):] = True

    gauss = _resolution_line(e, resolution_fwhm)
    amplitude, constant = _weighted_line_fit(
        gauss[sel], cut.values[sel], fitter.sigma_weights(cut.errors[sel])
    )
    if record is not None:
        record["elastic_amplitude"] = amplitude
        record["elastic_constant"] = constant
    return replace(cut, values=cut.values - (amplitude * gauss + constant))


def apply_fluctuation_dissipation(cut: EnergyCut) -> EnergyCut:
    """Convert an S(E) cut to chi''(E) bin by bin; errors scale with the factor."""
    factor = dynamics.detailed_balance(cut.e_axis, cut.temperature)
    return replace(cut, values=factor * cut.values, errors=np.abs(factor) * cut.errors)


def reduce_to_chi_imag(grid: SpectrumGrid, manifest: DatasetManifest, record: dict) -> EnergyCut:
    """The calibrated chi''(E) cut of one dataset: Q-window integral, elastic
    line subtraction (fit stored in ``record``), fluctuation-dissipation,
    and division by the manifest's calibration."""
    cut = integrate_q_window(grid, *manifest.q_window)
    cut = subtract_elastic_line(cut, manifest.resolution_fwhm_meV, record=record)
    cut = apply_fluctuation_dissipation(cut)
    return replace(
        cut, values=cut.values / manifest.calibration, errors=cut.errors / manifest.calibration
    )


# Fixed settings of the synthetic generator, recorded in generation.json:
# the sample name, model intensity to detector counts, the Q window (1/A)
# each manifest names, the width (1/A) of each Gaussian of the momentum
# envelope, and the resolution FWHM (meV) of the elastic line.
_SAMPLE = "synthetic-chain"
_COUNTS_SCALE = 1.0e4
_Q_WINDOW = (0.4, 1.1)
_ENVELOPE_WIDTH = 0.25
_RESOLUTION_FWHM = 0.0175


@dataclass
class SynthConfig:
    """Settings of the synthetic dataset generator.

    ``noise_level`` scales the counting noise (0 disables it) and
    ``chi_noise_level`` the relative chi noise; both must be finite and
    >= 0, and the elastic amplitude and flat background finite. The
    momentum envelope of the synthetic 1D signal is a pair of Gaussians
    (even in q) centered at the antiferromagnetic zone center pi/c. The
    sample name, counts scale, Q window, envelope width and resolution are
    module constants.
    """

    seed: int = 0
    noise_level: float = 0.0
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
    elastic_amplitude: float = 0.0
    flat_background: float = 0.0

    def __post_init__(self):
        for name in ("noise_level", "chi_noise_level"):
            value = getattr(self, name)
            if not (_is_number(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value}")
        for name in ("elastic_amplitude", "flat_background"):
            value = getattr(self, name)
            if not _is_number(value):
                raise ValueError(f"{name} must be a finite number, got {value}")


def synthetic_dataset(
    chain: ChainParameters,
    starykh: StarykhParams,
    temperatures: Sequence[float],
    config: SynthConfig,
) -> dict:
    """A deterministic synthetic dataset as ``{file name: content}`` for
    ``write_outputs``: ``chi.csv`` as text, then ``sqe_T*.csv`` as its
    SpectrumGrid and ``manifest_T*.json`` per temperature, then
    ``generation.json``. Each manifest and ``generation.json`` is a callable
    of the hashes ``write_outputs`` returns for the CSVs written before it;
    every field but those hashes is checked here, before any file is written.

    The spectrum is a separable 1D model, envelope(q) * S(E, T), pushed
    through the exact powder average, plus an optional elastic line and
    flat background. Each manifest's ``calibration`` field holds the exact
    factor between the Q-window-integrated chi'' cut and the chain model
    chi'', so the analysis pipeline can recover the generation parameters.
    A non-finite chi, sigma, count or error is refused with a ValueError
    naming its temperature.
    """
    if chain.lattice_c is None:
        raise ValueError("chain.lattice_c is required to place the zone center")
    for t in temperatures:
        dynamics.scaling_dimension(t, starykh)  # refuses a bad or near-cutoff temperature early

    rng = np.random.Generator(np.random.Philox(config.seed))

    # susceptibility curve
    chi_t = np.asarray(config.chi_temperatures, dtype=float)
    chi_clean = chi_full(chi_t, chain)
    sigma = config.chi_noise_level * np.abs(chi_clean)
    chi_noisy = chi_clean + rng.normal(size=chi_t.size) * sigma
    bad = ~(np.isfinite(chi_noisy) & np.isfinite(sigma))
    if bad.any():
        raise ValueError(f"synthetic chi or sigma at T = {chi_t[bad][0]:g} K is not finite")
    curve = SusceptibilityCurve(temperatures=chi_t, chi=chi_noisy, sigma=sigma)
    outputs = {"chi.csv": csv_table_text(CHI_HEADER, curve.temperatures, curve.chi, curve.sigma)}
    csv_names = ["chi.csv"]

    def records(hashes, names):
        return [{"path": name, "sha256": hashes[name]} for name in names]

    q_zc = math.pi / chain.lattice_c

    def envelope(q):
        w = _ENVELOPE_WIDTH
        return np.exp(-0.5 * ((q - q_zc) / w) ** 2) + np.exp(-0.5 * ((q + q_zc) / w) ** 2)

    # powder average of the envelope alone (separability makes this exact)
    env_grid = spinon.forward_powder_average(lambda q, e: envelope(q), config.q_axis, [0.0])
    env_pwd = env_grid.intensity[0]
    window_weight = float(integrate_q_window(env_grid, *_Q_WINDOW).values[0])

    e_axis = np.asarray(config.e_axis, dtype=float)
    elastic_line = config.elastic_amplitude * _resolution_line(e_axis, _RESOLUTION_FWHM)
    for t in temperatures:
        sqw_e = dynamics.sqw_on_axis(e_axis, t, starykh)
        counts = _COUNTS_SCALE * np.outer(sqw_e, env_pwd)
        counts += elastic_line[:, None]
        counts += config.flat_background
        errors = np.sqrt(np.maximum(counts, 1.0))
        if config.noise_level > 0:
            counts = counts + config.noise_level * rng.normal(size=counts.shape) * errors
        if not (np.isfinite(counts).all() and np.isfinite(errors).all()):
            raise ValueError(f"synthetic counts or errors at T = {t:g} K are not finite")
        grid = SpectrumGrid(
            q_axis=config.q_axis,
            e_axis=config.e_axis,
            intensity=counts,
            errors=errors,
            temperature=t,
        )
        tag = f"{t:g}".replace(".", "p")
        name = f"sqe_T{tag}.csv"
        if name in outputs:
            raise ValueError(f"two temperatures share the file name {name}")
        outputs[name] = grid
        csv_names.append(name)
        manifest = DatasetManifest(
            sample=_SAMPLE,
            temperature_K=float(t),
            resolution_fwhm_meV=_RESOLUTION_FWHM,
            q_window=_Q_WINDOW,
            lattice_c_A=chain.lattice_c,
            calibration=_COUNTS_SCALE * window_weight,
            policies={
                "negative_log_policy": starykh.negative_log_policy,
                "clip_negative_chi_imag": True,
                "elastic_amplitude": config.elastic_amplitude,
                "flat_background": config.flat_background,
            },
        )
        outputs[f"manifest_T{tag}.json"] = lambda hashes, fields=asdict(manifest), name=name: {
            **fields, "inputs": records(hashes, [name])
        }

    generation = {
        "sample": _SAMPLE,
        "seed": config.seed,
        "noise_level": config.noise_level,
        "chi_noise_level": config.chi_noise_level,
        "counts_scale": _COUNTS_SCALE,
        "chain": asdict(chain),
        "starykh": asdict(starykh),
        "temperatures": [float(t) for t in temperatures],
        "q_window": list(_Q_WINDOW),
        "envelope_width": _ENVELOPE_WIDTH,
        "elastic_amplitude": config.elastic_amplitude,
        "flat_background": config.flat_background,
        "resolution_fwhm": _RESOLUTION_FWHM,
    }
    outputs["generation.json"] = lambda hashes: {**generation, "files": records(hashes, csv_names)}
    return outputs


def generate_synthetic_dataset(
    chain: ChainParameters,
    starykh: StarykhParams,
    temperatures: Sequence[float],
    outdir,
    config: SynthConfig,
) -> dict:
    """Write ``synthetic_dataset`` into ``outdir``; returns the paths
    written as ``{chi_csv, spectra: [{sqe_csv, manifest}], generation}``."""
    outputs = synthetic_dataset(chain, starykh, temperatures, config)
    write_outputs(outdir, outputs, None)
    paths = [str(Path(outdir) / name) for name in outputs]
    spectra = [{"sqe_csv": s, "manifest": m} for s, m in zip(paths[1:-1:2], paths[2:-1:2])]
    return {"chi_csv": paths[0], "spectra": spectra, "generation": paths[-1]}
