"""Hypothesis fuzz of the manifest and sqe.csv readers through the command
line: every mutated input must end in exit code 2, 3 or 4 with exactly one
JSON line on stderr, never in a traceback or a silent success."""
import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chainqfi.cli import main
from chainqfi.core import ChainParameters
from chainqfi.dynamics import StarykhParams
from chainqfi.pipeline_io import (
    DatasetManifest,
    SynthConfig,
    generate_synthetic_dataset,
    sha256_of,
)
from chainqfi.suscept import chi_full

MANIFEST_KEYS = (
    "sample", "temperature_K", "resolution_fwhm_meV", "q_window",
    "lattice_c_A", "calibration", "policies", "inputs",
)
# a value of a type each field does not accept
WRONG_TYPE = {
    "sample": 1.5,
    "temperature_K": "0.5",
    "resolution_fwhm_meV": "0.0175",
    "q_window": "0.4,1.1",
    "lattice_c_A": "5.32",
    "calibration": "1",
    "policies": ["strict"],
    "inputs": {"path": "sqe.csv", "sha256": "0" * 64},
}
DROP = object()
MUTATIONS = ("drop", "null", "wrong type", "nan", "negative", "empty list")
FUZZ = settings(max_examples=40, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """One 20 x 61 spectrum and its manifest."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = SynthConfig(
        q_axis=np.linspace(0.15, 1.5, 20),
        e_axis=np.linspace(-0.195, 1.005, 61),
        chi_temperatures=np.geomspace(0.5, 300.0, 10),
    )
    chain = ChainParameters(j_over_kb=3.1, g_factor=2.1, lattice_c=5.32)
    starykh = StarykhParams(a_starykh=0.00065, t0_kelvin=math.pi * 3.1 / 8, j_over_kb=3.1)
    written = generate_synthetic_dataset(chain, starykh, [0.5], root, config=cfg)
    spectrum = written["spectra"][0]
    return Path(spectrum["manifest"]), Path(spectrum["sqe_csv"])


def mutated_value(key, mutation):
    return {
        "drop": DROP,
        "null": None,
        "wrong type": WRONG_TYPE[key],
        "nan": float("nan"),
        "negative": -1.0,
        "empty list": [],
    }[mutation]


def run_in_copy(dataset, command, edit_manifest=None, edit_rows=None):
    """Copy the dataset, apply the edits, run the command; (exit code, stderr)."""
    manifest_src, sqe_src = dataset
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sqe = tmp / sqe_src.name
        shutil.copy(sqe_src, sqe)
        data = json.loads(manifest_src.read_text())
        if edit_rows is not None:
            rows = sqe.read_text().splitlines()
            edit_rows(rows)
            sqe.write_text("\n".join(rows) + "\n")
            data["inputs"][0]["sha256"] = sha256_of(sqe)
        if edit_manifest is not None:
            edit_manifest(data)
        manifest = tmp / manifest_src.name
        manifest.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--data", str(manifest), "--out", str(tmp / "out")])
    return code, err.getvalue()


def assert_one_json_error(code, err):
    assert code in (2, 3, 4), err
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    assert set(json.loads(lines[0])) == {"error", "message"}


@FUZZ
@given(
    key=st.sampled_from(MANIFEST_KEYS),
    mutation=st.sampled_from(MUTATIONS),
    command=st.sampled_from(["qfi", "spinon"]),
)
def test_manifest_mutations(dataset, key, mutation, command):
    # the chain lattice parameter is optional for qfi, so null is valid there
    assume(not (command == "qfi" and key == "lattice_c_A" and mutation == "null"))
    value = mutated_value(key, mutation)

    def edit(data):
        if value is DROP:
            del data[key]
        else:
            data[key] = value

    code, err = run_in_copy(dataset, command, edit_manifest=edit)
    assert_one_json_error(code, err)
    assert key in err


@FUZZ
@given(
    row=st.integers(min_value=1, max_value=20 * 61),
    column=st.integers(min_value=0, max_value=3),
    mutation=st.sampled_from(["truncate", "non-numeric", "duplicate"]),
    command=st.sampled_from(["qfi", "spinon"]),
)
def test_spectrum_mutations(dataset, row, column, mutation, command):
    def edit(rows):
        cells = rows[row].split(",")
        if mutation == "truncate":
            rows[row] = ",".join(cells[:-1])
        elif mutation == "non-numeric":
            cells[column] = "n/a"
            rows[row] = ",".join(cells)
        else:
            rows.insert(row, rows[row])

    code, err = run_in_copy(dataset, command, edit_rows=edit)
    assert_one_json_error(code, err)
    assert json.loads(err)["error"] == "ParseError"


def run_main(argv):
    """(exit code, stderr) of one in-process command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err):
    """Success, or a documented failure with exactly one JSON error line."""
    assert code in (0, 2, 3, 4), err
    if code:
        assert_one_json_error(code, err)


CHAIN = ChainParameters(j_over_kb=3.1, g_factor=2.1)
# edits of one row (T, chi, sigma) of a clean chi(T) curve
ROW_EDITS = {
    "chi zero": lambda t, chi, sigma: (t, 0.0, sigma),
    "chi negative": lambda t, chi, sigma: (t, -chi, sigma),
    "chi 1e300": lambda t, chi, sigma: (t, 1e300, sigma),
    "chi 1e-300": lambda t, chi, sigma: (t, 1e-300, sigma),
    "T 1e300": lambda t, chi, sigma: (1e300, chi, sigma),
    "T 1e-300": lambda t, chi, sigma: (1e-300, chi, sigma),
    "sigma zero": lambda t, chi, sigma: (t, chi, 0.0),
    "sigma 1e300": lambda t, chi, sigma: (t, chi, 1e300),
}
FLAG_SETS = {
    "none": [],
    "fit c1": ["--fit-c1"],
    "impurity curie": ["--impurity-curie"],
    "frozen g, fit c1": ["--freeze", "g=2.1", "--fit-c1"],
}


@FUZZ
@given(
    n_rows=st.integers(min_value=1, max_value=12),
    edits=st.lists(
        st.tuples(st.integers(min_value=0, max_value=11), st.sampled_from(list(ROW_EDITS))),
        max_size=3,
    ),
    # relative errors of the clean curve; synth writes 0 without --chi-noise
    relative_sigma=st.sampled_from([0.0, 0.01]),
    command=st.sampled_from(["fit-susceptibility", "witness"]),
    flags=st.sampled_from(list(FLAG_SETS)),
)
# the undamped first step in c1 overflows the bound transform
@example(n_rows=12, edits=[], relative_sigma=0.0, command="fit-susceptibility",
         flags="frozen g, fit c1")
def test_chi_csv_mutations(n_rows, edits, relative_sigma, command, flags):
    t = np.geomspace(0.5, 300.0, n_rows)
    chi = chi_full(t, CHAIN)
    rows = list(zip(t, chi, relative_sigma * chi))
    for k, edit in edits:
        rows[k % n_rows] = ROW_EDITS[edit](*rows[k % n_rows])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chi.csv"
        path.write_text("T_K,chi_emu_per_mol,sigma\n" + "".join(
            f"{float(a)!r},{float(b)!r},{float(c)!r}\n" for a, b, c in rows
        ))
        extra = FLAG_SETS[flags] if command == "fit-susceptibility" else ["--g", "2.1"]
        code, err = run_main([command, str(path), *extra, "--out", str(Path(tmp) / "out")])
    assert_clean_exit(code, err)


# the energy axis of each kind with n values; "zero only" repeats E = 0
ENERGIES = {
    "all negative": lambda n: np.linspace(-0.3, -0.1, n),
    "all positive": lambda n: np.linspace(0.1, 0.9, n),
    "zero only": lambda n: np.zeros(n),
    "spanning zero": lambda n: np.linspace(-0.2, 0.6, n) if n > 1 else np.zeros(1),
}


@pytest.mark.parametrize("kind", list(ENERGIES))
@pytest.mark.parametrize("command", ["qfi", "spinon"])
def test_small_grid_shapes(command, kind):
    """Every grid of 1-3 momenta by 1-3 energies; the exhaustive set of
    shapes, not a sample."""
    for nq in (1, 2, 3):
        for ne in (1, 2, 3):
            q, e = np.linspace(0.5, 1.0, nq), ENERGIES[kind](ne)
            with tempfile.TemporaryDirectory() as tmp:
                sqe = Path(tmp) / "sqe.csv"
                sqe.write_text("Q_invA,E_meV,intensity,error\n" + "".join(
                    f"{qk!r},{ek!r},{1.0 + qk + ek!r},0.1\n"
                    for ek in e.tolist() for qk in q.tolist()
                ))
                manifest = Path(tmp) / "manifest.json"
                DatasetManifest(
                    sample="grid", temperature_K=0.5, resolution_fwhm_meV=0.0175,
                    q_window=(0.4, 1.1), lattice_c_A=5.32,
                    inputs=[{"path": sqe.name, "sha256": sha256_of(sqe)}],
                ).save(manifest)
                code, err = run_main(
                    [command, "--data", str(manifest), "--out", str(Path(tmp) / "out")]
                )
            assert code in (0, 2, 3, 4), (nq, ne, err)
            if code:
                assert_one_json_error(code, err)
