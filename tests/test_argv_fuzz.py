"""Hypothesis fuzz of every subcommand's numeric flags through the command
line: a subset of the flags, each set to a finite extreme or a valid value
and written as ``--f v`` or ``--f=v``. Every run either exits 0 with strict
JSON and finite CSV cells, or exits 2, 3 or 4 with exactly one JSON line on
stderr and no ``--out`` directory."""
import contextlib
import importlib.util
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainqfi.cli import main
from chainqfi.core import ChainParameters
from chainqfi.dynamics import StarykhParams
from chainqfi.pipeline_io import SynthConfig, generate_synthetic_dataset

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("readme_trees", ROOT / "tools" / "readme_trees.py")
TREES = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(TREES)

# the finite extremes of every numeric flag
EXTREMES = ("0", "-1", "5e-324", "1e-300", "1e300", "1e307", "1e308", "-1e308", "1e-12",
            "1e12", "-0.0")
# --temps lists: valid, one bad entry at either end, an extreme, repeats
TEMPS = ("0.2,0.5", "0.04,0.5,3", "-0.5,1", "0.5,0", "1e308,0.5", "0.2,5e-324",
         "0.5,0.5,0.5", "-1e308", "0.3")
LINE_SHAPE = {"--j-kelvin": ("3.1",), "--a-starykh": ("0.00065",), "--t0-kelvin": ("1.2",)}
QFI = {**LINE_SHAPE, "--omega-max": ("0.8",), "--z": ("1.0", "2")}
# subcommand -> {flag: its valid values}; extremes are drawn for every flag
FLAGS = {
    "synth": {
        **LINE_SHAPE, "--g": ("2.1",), "--c0": ("0.001",), "--c1": ("-0.0001",),
        "--lattice-c": ("5.32",), "--seed": ("7",), "--noise": ("1.0",),
        "--chi-noise": ("0.01",), "--elastic-amp": ("100",), "--flat-bg": ("2",),
        "--temps": TEMPS,
    },
    "fit-susceptibility": {"--j0": ("3.0",), "--g0": ("2.0",)},
    "witness": {"--g": ("2.1",)},
    "qfi --model": {**QFI, "--temps": TEMPS},
    "qfi --data": QFI,
    "spinon": {"--j-kelvin": ("3.1",)},
}
FUZZ = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def flag_values(draw, command):
    """A subset of the command's numeric flags, each as likely to take an
    extreme as a valid value, written as ``--f v`` or ``--f=v``."""
    flags = FLAGS[command]
    argv = []
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4)):
        value = draw(st.sampled_from(EXTREMES) | st.sampled_from(flags[flag]))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A three-temperature dataset on a 20 Q x 61 E grid."""
    root = tmp_path_factory.mktemp("argv_fuzz")
    cfg = SynthConfig(
        seed=7, noise_level=1.0, elastic_amplitude=100.0,
        q_axis=np.linspace(0.15, 1.5, 20), e_axis=np.linspace(-0.195, 1.005, 61),
        chi_temperatures=np.geomspace(0.5, 300.0, 30),
    )
    chain = ChainParameters(j_over_kb=3.1, g_factor=2.1, lattice_c=5.32)
    starykh = StarykhParams(a_starykh=0.00065, t0_kelvin=math.pi * 3.1 / 8, j_over_kb=3.1)
    written = generate_synthetic_dataset(chain, starykh, [0.2, 0.3, 0.5], root, config=cfg)
    return written["chi_csv"], [s["manifest"] for s in written["spectra"]]


def assert_holds(argv):
    """Exit 0 with strict JSON and finite CSV cells, or exit 2, 3 or 4 with
    one JSON error line on stderr and no output directory."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = main([*argv, "--out", str(out), "--deterministic"])
            except SystemExit as exc:
                code = exc.code
        if code == 0:
            assert TREES.first_json_fault(out) is None, argv
            assert TREES.first_csv_fault(out) is None, argv
            return
        assert code in (2, 3, 4), (argv, err.getvalue())
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, err.getvalue())
        assert {"error", "message"} <= set(json.loads(lines[0])), argv
        assert not out.exists(), argv


@FUZZ
@given(flags=flag_values("synth"))
@example(flags=["--g", "-1e308"])
@example(flags=["--bogus", "1"])
def test_synth(flags):
    assert_holds(["synth", *flags])


@FUZZ
@given(flags=flag_values("fit-susceptibility"))
@example(flags=["--j0", "-1e308"])
@example(flags=["--bogus", "1"])
def test_fit_susceptibility(data, flags):
    assert_holds(["fit-susceptibility", data[0], *flags])


@FUZZ
@given(flags=flag_values("witness"))
@example(flags=["--g", "-1e308"])
@example(flags=["--g", "2.1", "--bogus", "1"])
def test_witness(data, flags):
    assert_holds(["witness", data[0], *flags])


@FUZZ
@given(flags=flag_values("qfi --model"))
@example(flags=["--temps", "-0.5,1"])
@example(flags=["--bogus", "1"])
def test_qfi_model(flags):
    # the README's policy: the default temperatures 3 and 6.7 K pass the cutoff
    assert_holds(["qfi", "--model", "--policy", "absolute-value", *flags])


@FUZZ
@given(flags=flag_values("qfi --data"))
@example(flags=["--z", "-1e308"])
@example(flags=["--bogus", "1"])
def test_qfi_data(data, flags):
    assert_holds(["qfi", "--data", *data[1], *flags])


@FUZZ
@given(flags=flag_values("spinon"))
@example(flags=["--j-kelvin", "-1e308"])
@example(flags=["--bogus", "1"])
def test_spinon(data, flags):
    assert_holds(["spinon", "--data", data[1][0], *flags])
