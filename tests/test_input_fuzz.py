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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainqfi.cli import main
from chainqfi.core import ChainParameters
from chainqfi.dynamics import StarykhParams
from chainqfi.pipeline_io import SynthConfig, generate_synthetic_dataset, sha256_of

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
