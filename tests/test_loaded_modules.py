"""What the commands leave out of their process: each runs in a fresh
interpreter and must finish without OpenSSL's ``_hashlib`` (nor ``hashlib``,
which loads it), without ``numpy.random`` (nor ``secrets``, whose ``hmac``
loads ``_hashlib``) and without ``numpy.ma``. OpenSSL's libcrypto added
3.35 MB to a command's peak RSS and ``numpy.ma`` about 0.6 MB."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainqfi
from chainqfi.cli import MODEL_TEMPS, main

# modules no command may load
ABSENT = ("_hashlib", "hashlib", "numpy.ma", "numpy.random", "secrets")

_RUN = """
import json, sys
from chainqfi.cli import main

code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": [m for m in %r if m in sys.modules]}))
""" % (ABSENT,)

COMMANDS = {
    "synth": ["synth", "--temps", "0.2,0.5", "--seed", "7", "--noise", "1.0", "--elastic-amp", "100"],
    "spinon": ["spinon", "--data", "data/manifest_T0p2.json", "--j-kelvin", "3.1"],
    "qfi --data": ["qfi", "--data", "data/manifest_T0p2.json", "data/manifest_T0p5.json"],
    "fit-susceptibility": ["fit-susceptibility", "data/chi.csv", "--freeze", "g=2.1"],
    "witness": ["witness", "data/chi.csv", "--g", "2.1"],
    # the bare command: its default temperatures and policy
    "qfi --model": ["qfi", "--model"],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the README dataset in ``data/``."""
    root = tmp_path_factory.mktemp("footprint")
    assert main(["synth", "--temps", "0.2,0.5", "--seed", "7", "--noise", "1.0",
                 "--elastic-amp", "100", "--out", str(root / "data"), "--deterministic"]) == 0
    return root


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_loads_neither_openssl_nor_numpy_ma(workdir, command):
    src = str(Path(chainqfi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = "out/" + command.replace(" --", "_")
    done = subprocess.run(
        [sys.executable, "-c", _RUN, *COMMANDS[command], "--out", out, "--deterministic"],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"code": 0, "loaded": []}
    assert any((workdir / out).iterdir())


def test_bare_qfi_model_runs_its_defaults_under_the_strict_policy(tmp_path):
    out = tmp_path / "o"
    assert main(["qfi", "--model", "--out", str(out), "--deterministic"]) == 0
    report = json.loads((out / "qfi_report.json").read_text())
    assert report["negative_log_policy"] == "strict"
    assert [p["T_K"] for p in report["points"]] == [float(t) for t in MODEL_TEMPS.split(",")]
    assert report["scaling"] is not None
