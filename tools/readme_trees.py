"""Run the six README commands with --deterministic and print the digest of
each output tree, after a first line ``numpy <version> <machine>``.

    python tools/readme_trees.py [SRC]

SRC (default: the ``src`` directory of this checkout) goes first on
PYTHONPATH, and each command runs as ``python -m chainqfi.cli`` in a fresh
process inside a temporary directory. Each runs numpy's baseline code path:
``NPY_DISABLE_CPU_FEATURES`` names every target numpy dispatches to, so that
every x86-64 host with the same numpy gets the same digests, whatever SIMD
extensions its CPU has. arm64 and other numpy versions get others, which the
first line tells apart. A tree's digest equals
``LC_ALL=C find . -type f | sort | xargs sha256sum | sha256sum`` run in that
tree. The exit status is 1 when any command fails or writes anything to
stderr (a warning, say), after that stderr is shown, when any ``.json``
file of a tree holds ``NaN`` or ``Infinity``, which are not JSON numbers, or
when a cell below the header of any ``.csv`` file is not a finite number.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__

# (tree, argv); the first command writes the dataset the others read
COMMANDS = [
    ("data", ["synth", "--temps", "0.2,0.5", "--seed", "7", "--noise", "1.0",
              "--elastic-amp", "100", "--out", "data"]),
    ("fit", ["fit-susceptibility", "data/chi.csv", "--freeze", "g=2.1", "--out", "out/fit"]),
    ("witness", ["witness", "data/chi.csv", "--g", "2.1", "--out", "out/witness"]),
    ("qfi --model", ["qfi", "--model", "--policy", "absolute-value",
                     "--temps", "0.04,0.5,3,6.7", "--out", "out/qfi_model"]),
    ("qfi --data", ["qfi", "--data", "data/manifest_T0p2.json", "data/manifest_T0p5.json",
                    "--out", "out/qfi_data"]),
    ("spinon", ["spinon", "--data", "data/manifest_T0p2.json", "--j-kelvin", "3.1",
                "--out", "out/spinon"]),
]


def tree_digest(root: Path) -> str:
    """sha256 of the ``sha256sum`` listing of every file under ``root``,
    paths as ``./rel`` in byte order."""
    paths = sorted(("./" + p.relative_to(root).as_posix()).encode() for p in root.rglob("*")
                   if p.is_file())
    listing = b"".join(
        hashlib.sha256((root / p[2:].decode()).read_bytes()).hexdigest().encode()
        + b"  " + p + b"\n"
        for p in paths
    )
    return hashlib.sha256(listing).hexdigest()


def _refuse_constant(name: str):
    raise ValueError(f"holds {name}, which is not a JSON number")


def first_json_fault(root: Path) -> str | None:
    """The first fault of a ``.json`` file under ``root`` that is not strict
    JSON, as ``path: reason``; None when every one parses."""
    for path in sorted(root.rglob("*.json")):
        try:
            json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_constant)
        except ValueError as exc:
            return f"{path.relative_to(root)}: {exc}"
    return None


def _is_finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def first_csv_fault(root: Path) -> str | None:
    """The first cell below the header of a ``.csv`` file under ``root`` that
    is not a finite number, as ``path: line N: cell``; None when all are."""
    for path in sorted(root.rglob("*.csv")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines[1:], start=2):
            bad = next((cell for cell in line.split(",") if not _is_finite(cell)), None)
            if bad is not None:
                return f"{path.relative_to(root)}: line {number}: {bad!r} is not a finite number"
    return None


def main(argv: list[str]) -> int:
    src = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src").resolve()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])),
        "NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__)}
    print(f"numpy {np.__version__} {platform.machine()}")
    with tempfile.TemporaryDirectory() as tmp:
        for tree, args in COMMANDS:
            run = subprocess.run(
                [sys.executable, "-m", "chainqfi.cli", *args, "--deterministic"],
                cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            if run.returncode != 0 or run.stderr:
                print(f"{tree}: exit {run.returncode}\n{run.stderr}", file=sys.stderr)
                return 1
            root = Path(tmp) / args[args.index("--out") + 1]
            fault = first_json_fault(root) or first_csv_fault(root)
            if fault:
                print(f"{tree}: {fault}", file=sys.stderr)
                return 1
            print(f"{tree_digest(root)}  {tree}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
