"""The output trees of the six README commands hash as committed in
``readme_digests.txt``; a change to any README output shows in the diff."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chainqfi.cli import main

ROOT = Path(__file__).resolve().parents[1]


def assert_tool_prints_the_committed_digests(env=None):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "readme_trees.py"), str(ROOT / "src")],
        capture_output=True, timeout=300, env=env,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (ROOT / "tests" / "readme_digests.txt").read_bytes()


def test_trees_match_the_committed_digests():
    assert_tool_prints_the_committed_digests()


def test_trees_match_with_no_avx512_path():
    """A setting that leaves numpy no AVX-512 path, as on a host whose CPU has
    AVX2 at most, prints the same: the tool runs numpy's baseline path."""
    assert_tool_prints_the_committed_digests(
        {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    )


def _tool():
    spec = importlib.util.spec_from_file_location("readme_trees", ROOT / "tools" / "readme_trees.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "x", ""])
def test_a_csv_cell_that_is_not_finite_is_named(tmp_path, cell):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.csv").write_text("T_K,F_Q\n0.1,2.0\n")
    (tmp_path / "sub" / "b.csv").write_text(f"T_K,F_Q\n0.1,2.0\n0.2,{cell}\n")
    assert _tool().first_csv_fault(tmp_path) == (
        f"sub/b.csv: line 3: {cell!r} is not a finite number"
    )


def test_finite_csv_cells_pass(tmp_path):
    (tmp_path / "a.csv").write_text("T_K,F_Q,err\n0.1,2.0,1e-300\n5e-324,-0.0,1e308\n")
    assert _tool().first_csv_fault(tmp_path) is None


def test_no_command_runs_an_svd(tmp_path, monkeypatch):
    """The six README commands in process, with numpy's SVD-based routines
    made to raise: the first SVD in a process maps megabytes of LAPACK."""

    def refuse(*args, **kwargs):
        raise AssertionError("an SVD-based numpy.linalg routine ran")

    for name in ("lstsq", "svd", "matrix_rank", "qr", "pinv"):
        monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(np.linalg._linalg, name, refuse)
    monkeypatch.chdir(tmp_path)
    for tree, args in _tool().COMMANDS:
        assert main([*args, "--deterministic"]) == 0, tree
