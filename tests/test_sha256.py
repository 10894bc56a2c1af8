"""The package's one SHA-256 (``core._sha256``, CPython's built-in module)
and the spectrum reader's axis rule, each against an oracle: ``hashlib``,
which the tests alone import, and ``np.unique``."""
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainqfi import core, pipeline_io
from chainqfi.core import SpectrumGrid
from chainqfi.pipeline_io import DatasetManifest, _distinct, read_spectrum_csv
from chainqfi.svgplot import Figure

ORACLE = settings(max_examples=60, deadline=None, derandomize=True)


def test_the_hash_is_cpythons_builtin():
    assert core._sha256.__module__ == ("_sha2" if sys.version_info >= (3, 12) else "_sha256")


@ORACLE
@given(data=st.binary(max_size=4096), cuts=st.lists(st.integers(0, 4096), max_size=8))
@example(data=b"", cuts=[])
@example(data=bytes(range(256)) * 16, cuts=[0, 63, 64, 65, 4095])
def test_chunked_updates_match_hashlib(data, cuts):
    h = core._sha256()
    bounds = [0, *sorted(c % (len(data) + 1) for c in cuts), len(data)]
    for a, b in zip(bounds, bounds[1:]):
        h.update(data[a:b])
    assert h.hexdigest() == hashlib.sha256(data).hexdigest()


@ORACLE
@given(piece=st.binary(min_size=1, max_size=97), repeats=st.integers(0, 2500))
@example(piece=b"\x00", repeats=65536)
@example(piece=b"ab", repeats=32768 + 1)
def test_sha256_of_matches_hashlib_across_its_read_size(piece, repeats):
    data = piece * repeats
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.bin"
        path.write_bytes(data)
        assert pipeline_io.sha256_of(path) == hashlib.sha256(data).hexdigest()


finite = st.floats(allow_nan=False, allow_infinity=False)


@ORACLE
@given(
    text=st.text(max_size=200),
    payload=st.dictionaries(st.text(max_size=8), finite | st.text(max_size=8), max_size=6),
    values=st.lists(finite, min_size=6, max_size=6),
)
def test_every_hash_write_outputs_returns_matches_hashlib(text, payload, values):
    grid = SpectrumGrid(q_axis=[0.5, 1.0, 1.5], e_axis=[-0.1, 0.2],
                        intensity=np.reshape(values, (2, 3)),
                        errors=np.abs(np.reshape(values, (2, 3))), temperature=0.3)
    fig = Figure(title="t")
    fig.points([1.0, 2.0], values[:2])
    outputs = {"a.txt": text, "b.json": payload, "c.csv": grid, "d.svg": fig,
               "e.json": lambda hashes: {"files": hashes}}
    with tempfile.TemporaryDirectory() as tmp:
        hashes = pipeline_io.write_outputs(tmp, outputs, "2020-01-01T00:00:00")
        assert list(hashes) == list(outputs)
        for name, digest in hashes.items():
            assert digest == hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest(), name


# values whose order and bits the axis rule must keep: both zeros, the
# subnormal extremes, neighbours of 1 and the largest floats
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, np.nextafter(1.0, 2.0),
           -1.0, 1.7976931348623157e308, -1.7976931348623157e308)


@st.composite
def columns(draw):
    """A finite column drawn from a small pool, so values repeat; long
    columns reach numpy's vectorised sort, short ones its insertion sort."""
    pool = draw(st.lists(st.sampled_from(SPECIAL) | finite, min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=400))
    return np.array([pool[k] for k in picks], dtype=float)


def assert_same_bytes(column):
    assert _distinct(column).tobytes() == np.unique(column).tobytes()


@ORACLE
@given(column=columns())
@example(column=np.array([0.0, -0.0]))
@example(column=np.array([-0.0, 0.0, 1.0, -0.0]))
def test_axis_rule_matches_np_unique(column):
    assert_same_bytes(column)
    assert_same_bytes(np.stack([column, column], axis=1)[:, 0])  # a strided column


def test_axis_rule_matches_np_unique_on_long_mixed_zero_columns():
    rng = np.random.default_rng(7)
    for n in (17, 1000, 100_000):
        assert_same_bytes(rng.choice(SPECIAL, size=n))
        assert_same_bytes(np.concatenate([rng.choice([0.0, -0.0], size=n), rng.normal(size=n)]))


def test_reader_axes_match_np_unique_with_both_zeros(tmp_path):
    """Q = -0.0 in one energy row and 0.0 in the others is one grid column,
    as E = -0.0 and 0.0 are one row; the reader keeps the zeros np.unique
    keeps."""
    path = tmp_path / "sqe.csv"
    path.write_text(
        "Q_invA,E_meV,intensity,error\n"
        "-0.0,0.5,1.0,0.1\n1.0,0.5,2.0,0.1\n5e-324,0.5,3.0,0.1\n"
        "0.0,-0.0,1.0,0.1\n1.0,0.0,2.0,0.1\n5e-324,0.0,3.0,0.1\n"
        "0.0,1.5,1.0,0.1\n1.0,1.5,2.0,0.1\n5e-324,1.5,3.0,0.1\n"
    )
    manifest = DatasetManifest(sample="s", temperature_K=0.3, resolution_fwhm_meV=0.02,
                               q_window=(0.0, 1.0))
    grid = read_spectrum_csv(path, manifest)
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert grid.q_axis.tobytes() == np.unique(table[:, 0]).tobytes()
    assert grid.e_axis.tobytes() == np.unique(table[:, 1]).tobytes()
    assert grid.intensity.shape == (3, 3)
