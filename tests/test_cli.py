import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

import chainqfi
from chainqfi import cli, fitter, qfi
from chainqfi.cli import build_parser, main
from chainqfi.core import ChainParameters, SpectrumGrid
from chainqfi.errors import ChainQfiError, NonPositiveValue
from chainqfi.pipeline_io import (
    DatasetManifest,
    SynthConfig,
    generate_synthetic_dataset,
    sha256_of,
    write_spectrum_csv,
    write_susceptibility_csv,
)
from chainqfi.dynamics import StarykhParams
from chainqfi.suscept import SusceptibilityCurve, chi_bonner_fisher, chi_full

CHAIN = ChainParameters(j_over_kb=3.1, g_factor=2.1, lattice_c=5.32)
STARYKH = StarykhParams(a_starykh=0.00065, t0_kelvin=math.pi * 3.1 / 8, j_over_kb=3.1)


def write_chi(path, params=CHAIN, n=60, t_lo=0.5, t_hi=300.0):
    t = np.geomspace(t_lo, t_hi, n)
    curve = SusceptibilityCurve(t, chi_full(t, params), np.zeros(n))
    write_susceptibility_csv(path, curve)
    return path


def make_dataset(tmp_path, temps=(0.5, 0.7), **cfg_overrides):
    cfg = SynthConfig(
        q_axis=np.linspace(0.15, 1.5, 28),
        e_axis=np.linspace(-0.195, 1.005, 61),
        chi_temperatures=np.geomspace(0.5, 300.0, 40),
        **cfg_overrides,
    )
    return generate_synthetic_dataset(CHAIN, STARYKH, list(temps), tmp_path, config=cfg)


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = Path(full).read_bytes()
    return out


@pytest.fixture(scope="module")
def readme_data(tmp_path_factory):
    """The dataset of the README's synth command."""
    data = tmp_path_factory.mktemp("readme") / "data"
    assert main(["synth", "--temps", "0.2,0.5", "--seed", "7", "--noise", "1.0",
                 "--elastic-amp", "100", "--out", str(data), "--deterministic"]) == 0
    return data


class TestFitSusceptibilityCommand:
    def test_synthetic_fit(self, tmp_path):
        chi_csv = write_chi(tmp_path / "chi.csv")
        out = tmp_path / "out"
        code = main(
            ["fit-susceptibility", str(chi_csv), "--out", str(out), "--deterministic"]
        )
        assert code == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert 3.09 <= report["fit"]["parameters"]["j_over_kb"] <= 3.11
        assert report["j_from_t_max_note"]
        assert "3.05" in report["j_from_t_max_note"]
        assert "3.043" in report["j_from_t_max_note"]
        assert (out / "chi_fit.svg").exists()
        assert report["inputs"][0]["sha256"] == sha256_of(chi_csv)

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["fit-susceptibility", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"

    def test_freeze_contract(self, tmp_path):
        chi_csv = write_chi(tmp_path / "chi.csv")
        out = tmp_path / "out"
        code = main(
            [
                "fit-susceptibility", str(chi_csv), "--out", str(out),
                "--deterministic", "--freeze", "g=2.1",
            ]
        )
        assert code == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["fit"]["parameters"]["g_factor"] == 2.1
        assert report["fit"]["errors"]["g_factor"] == 0.0
        assert report["fit"]["frozen_mask"]["g_factor"] is True

    def test_freeze_value_that_is_not_a_number(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["fit-susceptibility", str(write_chi(tmp_path / "chi.csv")), "--freeze", "J=abc"]
        assert main([*argv, "--out", str(out)]) == 2
        assert single_error(capsys) == {
            "error": "ValueError", "message": "--freeze expects a number after '=', got 'J=abc'"
        }
        assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--impurity-curie"]], ids=["constant", "curie"])
    def test_free_c1_on_the_readme_data(self, tmp_path, extra):
        # the first undamped step in c1 = -exp(u) overflows exp: a failed
        # trial, not a traceback
        data = tmp_path / "data"
        assert main(["synth", "--temps", "0.2,0.5", "--seed", "7", "--noise", "1.0",
                     "--elastic-amp", "100", "--out", str(data), "--deterministic"]) == 0
        out = tmp_path / "out"
        argv = ["fit-susceptibility", str(data / "chi.csv"), "--freeze", "g=2.1", "--fit-c1"]
        assert main([*argv, *extra, "--out", str(out), "--deterministic"]) == 0
        fit = json.loads((out / "fit_report.json").read_text())["fit"]
        assert fit["converged"] and fit["parameters"]["c1"] <= 0.0
        assert fit["parameters"]["j_over_kb"] == pytest.approx(3.1, rel=1e-6)

    @pytest.mark.parametrize("flag", [[], ["--fit-c1"], ["--impurity-curie"]],
                             ids=["constant", "c1", "curie"])
    @pytest.mark.parametrize("g0", ["1e5", "1e7", "1e9", "1e12"])
    def test_absurd_g0_fits_the_readme_j(self, readme_data, tmp_path, g0, flag):
        # each starting Jacobian is rank-deficient to rounding, and from 1e9 the
        # descent passes the noise floor of the starting cost far from the minimum
        out = tmp_path / "out"
        argv = ["fit-susceptibility", str(readme_data / "chi.csv"), "--g0", g0, *flag]
        assert main([*argv, "--out", str(out), "--deterministic"]) == 0
        fit = json.loads((out / "fit_report.json").read_text())["fit"]
        assert fit["converged"]
        assert fit["parameters"]["j_over_kb"] == pytest.approx(3.1, rel=1e-3)

    @pytest.mark.parametrize(
        "start, cause",
        [
            (["--g0", "0.01"], "need at least 3 samples of equal length"),
            (["--j0", "0.01", "--fit-c1"], "j_over_kb must be a finite number > 0, got 0.0"),
        ],
        ids=["g0 0.01", "j0 0.01 fit-c1"],
    )
    def test_fit_that_leaves_the_chain_exits_3(self, readme_data, tmp_path, capsys, start,
                                              cause):
        # the fit converges to J near 0 (1e-33 K, or 0.0), where the fitted
        # parameters or the model's peak search fail: a numerical failure
        chi_csv = str(readme_data / "chi.csv")
        out = tmp_path / "out"
        assert main(["fit-susceptibility", chi_csv, *start, "--out", str(out)]) == 3
        err = single_error(capsys)
        assert err["error"] == "FitDiverged"
        assert err["message"].startswith(f"{chi_csv}: fit reached J = ")
        assert err["message"].endswith(f": {cause}")
        assert not out.exists()


class TestWitnessCommand:
    def test_chain_model_crossing(self, tmp_path):
        t = np.arange(0.5, 8.0, 0.01)
        curve = SusceptibilityCurve(t, chi_bonner_fisher(t, CHAIN), np.zeros_like(t))
        chi_csv = tmp_path / "chi.csv"
        write_susceptibility_csv(chi_csv, curve)
        out = tmp_path / "out"
        code = main(["witness", str(chi_csv), "--g", "2.1", "--out", str(out), "--deterministic"])
        assert code == 0
        report = json.loads((out / "witness_report.json").read_text())
        assert report["t_se_K"] == pytest.approx(4.43, abs=0.02)
        rows = (out / "witness.csv").read_text().splitlines()
        assert rows[0] == "T_K,MW_SE"
        assert len(rows) == t.size + 1

    def test_zero_susceptibility(self, tmp_path):
        t = np.geomspace(0.5, 50, 20)
        chi_csv = tmp_path / "chi.csv"
        write_susceptibility_csv(
            chi_csv, SusceptibilityCurve(t, np.zeros_like(t), np.zeros_like(t))
        )
        out = tmp_path / "out"
        code = main(["witness", str(chi_csv), "--g", "2.1", "--out", str(out), "--deterministic"])
        assert code == 0
        report = json.loads((out / "witness_report.json").read_text())
        assert report["t_se_K"] is None
        values = np.array(
            [float(r.split(",")[1]) for r in (out / "witness.csv").read_text().splitlines()[1:]]
        )
        np.testing.assert_array_equal(values, -1.0)

    def test_subcritical_curie_curve(self, tmp_path):
        from chainqfi.core import DEFAULT_UNITS as U

        t = np.geomspace(0.5, 50, 20)
        bound = (2.1 * U.bohr_magneton) ** 2 * U.avogadro * 0.5 / (
            3 * U.boltzmann_erg_per_kelvin * t
        )
        chi_csv = tmp_path / "chi.csv"
        write_susceptibility_csv(
            chi_csv, SusceptibilityCurve(t, 0.5 * bound, np.zeros_like(t))
        )
        out = tmp_path / "out"
        code = main(["witness", str(chi_csv), "--g", "2.1", "--out", str(out), "--deterministic"])
        assert code == 0
        report = json.loads((out / "witness_report.json").read_text())
        assert report["t_se_K"] is None
        values = np.array(
            [float(r.split(",")[1]) for r in (out / "witness.csv").read_text().splitlines()[1:]]
        )
        np.testing.assert_allclose(values, -0.5, rtol=1e-9)


class TestQfiCommand:
    def test_model_mode_scaling_band(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "qfi", "--model", "--policy", "absolute-value",
                "--out", str(out), "--deterministic",
            ]
        )
        assert code == 0
        report = json.loads((out / "qfi_report.json").read_text())
        assert 0.40 <= report["scaling"]["delta_q_over_z"] <= 0.70
        rows = (out / "qfi_points.csv").read_text().splitlines()
        assert rows[0] == "T_K,F_Q,err"
        assert len(rows) == 5
        assert (out / "chi_imag.svg").exists()
        assert (out / "qfi_scaling.svg").exists()

    def test_model_mode_strict_policy_refuses_high_temperature(self, tmp_path, capsys):
        code = main(
            [
                "qfi", "--model", "--policy", "strict", "--temps", "0.04,0.5,3,6.7",
                "--out", str(tmp_path / "out"), "--deterministic",
            ]
        )
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CutoffDomainError"
        assert "policy" in err["message"]

    def test_data_mode_recovers_parameters(self, tmp_path):
        # the elastic subtraction absorbs whatever magnetic weight sits in
        # its |E| <= 2 FWHM window; with a dominant elastic line and
        # temperatures whose line shape is spread well beyond the window
        # the systematic stays at the ~10% level
        written = make_dataset(
            tmp_path / "data", temps=(0.2, 0.3),
            elastic_amplitude=2000.0, flat_background=5.0,
        )
        out = tmp_path / "out"
        manifests = [s["manifest"] for s in written["spectra"]]
        code = main(["qfi", "--data", *manifests, "--out", str(out), "--deterministic"])
        assert code == 0
        fit = json.loads((out / "fit_report.json").read_text())
        assert fit["parameters"]["a_starykh"] == pytest.approx(0.00065, rel=0.25)
        assert fit["parameters"]["t0_kelvin"] == pytest.approx(STARYKH.t0_kelvin, rel=0.3)
        report = json.loads((out / "qfi_report.json").read_text())
        assert report["scaling"] is None
        assert len(report["points"]) == 2
        assert report["elastic_subtraction"][0]["elastic_amplitude"] > 0

    def test_zero_signal_refuses_scaling(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        manifest_paths = []
        q = np.linspace(0.15, 1.5, 20)
        e = np.linspace(-0.195, 1.005, 61)
        for k, t in enumerate((0.5, 0.6, 0.7)):
            grid = SpectrumGrid(q, e, np.zeros((61, 20)), np.zeros((61, 20)), t)
            sqe = data_dir / f"sqe_{k}.csv"
            write_spectrum_csv(sqe, grid)
            manifest = DatasetManifest(
                sample="null", temperature_K=t, resolution_fwhm_meV=0.0175,
                q_window=(0.4, 1.1), lattice_c_A=5.32,
                inputs=[{"path": sqe.name, "sha256": sha256_of(sqe)}],
            )
            mp = data_dir / f"manifest_{k}.json"
            manifest.save(mp)
            manifest_paths.append(str(mp))
        code = main(["qfi", "--data", *manifest_paths, "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NonPositiveValue"

    def test_hash_mismatch_detected(self, tmp_path, capsys):
        written = make_dataset(tmp_path / "data", temps=(0.5,))
        sqe = written["spectra"][0]["sqe_csv"]
        with open(sqe, "a") as fh:
            fh.write("\n")
        code = main(
            ["qfi", "--data", written["spectra"][0]["manifest"], "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


class TestSpinonCommand:
    def test_conversion_and_bounds(self, tmp_path):
        written = make_dataset(tmp_path / "data", temps=(0.04,))
        out = tmp_path / "out"
        code = main(
            [
                "spinon", "--data", written["spectra"][0]["manifest"],
                "--j-kelvin", "3.1", "--out", str(out), "--deterministic",
            ]
        )
        assert code == 0
        report = json.loads((out / "spinon_report.json").read_text())
        j_mev = 3.1 * 0.08617333
        assert report["upper_bound_at_zone_center_meV"] == pytest.approx(
            math.pi * j_mev, rel=1e-9
        )
        assert (out / "s1d.csv").exists()
        assert (out / "spinon_overlay.svg").exists()

    def test_missing_lattice_parameter_exits_2(self, tmp_path, capsys):
        written = make_dataset(tmp_path / "data", temps=(0.04,))
        manifest_path = written["spectra"][0]["manifest"]
        data = json.loads(Path(manifest_path).read_bytes())
        data["lattice_c_A"] = None
        with open(manifest_path, "w") as fh:
            json.dump(data, fh)
        code = main(["spinon", "--data", manifest_path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "lattice" in json.loads(capsys.readouterr().err)["message"]


class TestSynthCommand:
    def test_deterministic_across_runs(self, tmp_path, capsys):
        args = [
            "synth", "--temps", "0.5", "--seed", "3", "--noise", "1.0",
            "--chi-noise", "0.01", "--elastic-amp", "20", "--flat-bg", "2",
        ]
        code = main(args + ["--out", str(tmp_path / "a")])
        capsys.readouterr()
        assert code == 0
        code = main(args + ["--out", str(tmp_path / "b")])
        capsys.readouterr()
        assert code == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


class TestCliContract:
    @pytest.mark.parametrize(
        "command", ["fit-susceptibility", "witness", "qfi", "spinon", "synth"]
    )
    def test_help_available(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        assert "--out" in capsys.readouterr().out

    def test_unknown_flag_is_fatal(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["witness", "x.csv", "--g", "2.0", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (argv, flag)
            for argv, flags in [
                (["fit-susceptibility", "x.csv"], ["--policy", "--omega-max", "--z", "--j-kelvin"]),
                (["witness", "x.csv", "--g", "2.0"], ["--policy", "--omega-max", "--z"]),
                (["spinon", "--data", "m.json"], ["--policy", "--omega-max", "--z"]),
                (["synth"], ["--omega-max", "--z"]),
            ]
            for flag in flags
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_flag_a_command_would_ignore_is_fatal(self, capsys, argv, flag):
        value = "strict" if flag == "--policy" else "1.0"
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        chi_csv = write_chi(tmp_path / "chi.csv", n=40)
        for run in ("a", "b"):
            assert (
                main(
                    [
                        "fit-susceptibility", str(chi_csv),
                        "--out", str(tmp_path / run), "--deterministic",
                    ]
                )
                == 0
            )
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_qfi_model_byte_identical(self, tmp_path):
        for run in ("a", "b"):
            assert (
                main(
                    [
                        "qfi", "--model", "--policy", "absolute-value",
                        "--out", str(tmp_path / run), "--deterministic",
                    ]
                )
                == 0
            )
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


_WITHOUT_SCIPY = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"import of {name} blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
from chainqfi.cli import main

code = main(sys.argv[1:])
assert "scipy" not in sys.modules
sys.exit(code)
"""


class TestRuntimeWithoutScipy:
    def run(self, *argv):
        src = str(Path(chainqfi.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-c", _WITHOUT_SCIPY, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_blocker_blocks(self):
        script = _WITHOUT_SCIPY.replace("from chainqfi", "import scipy\nfrom chainqfi")
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert done.returncode != 0 and "blocked" in done.stderr

    def test_synth_and_model_qfi(self, tmp_path):
        synth = self.run("synth", "--temps", "0.2,0.5", "--out", str(tmp_path / "data"),
                         "--deterministic")
        assert synth.returncode == 0, synth.stderr
        qfi = self.run("qfi", "--model", "--policy", "absolute-value",
                       "--out", str(tmp_path / "qfi"), "--deterministic")
        assert qfi.returncode == 0, qfi.stderr
        assert (tmp_path / "qfi" / "qfi_points.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit-susceptibility", "{data}/chi.csv", "--freeze", "g=2.1"],
            ["witness", "{data}/chi.csv", "--g", "2.1"],
            ["qfi", "--data", "{data}/manifest_T0p2.json", "{data}/manifest_T0p5.json"],
            ["spinon", "--data", "{data}/manifest_T0p2.json", "--j-kelvin", "3.1"],
        ],
        ids=["fit-susceptibility", "witness", "qfi --data", "spinon"],
    )
    def test_readme_analysis_commands(self, tmp_path, argv):
        data = tmp_path / "data"
        assert main(["synth", "--temps", "0.2,0.5", "--seed", "7", "--noise", "1.0",
                     "--elastic-amp", "100", "--out", str(data), "--deterministic"]) == 0
        argv = [a.format(data=data) for a in argv]
        done = self.run(*argv, "--out", str(tmp_path / "out"), "--deterministic")
        assert done.returncode == 0, done.stderr
        assert any((tmp_path / "out").iterdir())

    def test_forced_fallback(self):
        # the residual depends on a + b only, so the starting Jacobian has rank 1;
        # Levenberg-Marquardt fits it with no fallback and no scipy
        script = _WITHOUT_SCIPY.split("from chainqfi.cli")[0] + """
import numpy as np
from chainqfi.fitter import least_squares

target = np.array([1.0, 2.0, 3.0])
res = least_squares(lambda p: (p["a"] + p["b"]) * np.ones(3) - target, {"a": 0.0, "b": 0.0})
assert res.converged, res
assert "nelder-mead" not in res.message, res.message
assert abs(res.parameters["a"] + res.parameters["b"] - 2.0) < 1e-10
assert "scipy" not in sys.modules
"""
        src = str(Path(chainqfi.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr


def single_error(capsys) -> dict:
    """The one JSON error line a failing command leaves on stderr."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return json.loads(lines[0])


def rewrite_manifest(path, **changes):
    data = json.loads(Path(path).read_text())
    data.update(changes)
    Path(path).write_text(json.dumps(data))


class TestInputFaults:
    """Each malformed input ends in its documented exit code and one JSON
    line on stderr that names the file and, for manifests, the field."""

    @pytest.fixture
    def manifest(self, tmp_path):
        return make_dataset(tmp_path / "data", temps=(0.5,))["spectra"][0]["manifest"]

    def run(self, argv, capsys):
        code = main(argv)
        return code, single_error(capsys)

    @pytest.mark.parametrize("command", ["qfi", "spinon"])
    def test_empty_inputs(self, manifest, tmp_path, capsys, command):
        rewrite_manifest(manifest, inputs=[])
        code, err = self.run([command, "--data", manifest, "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert err["error"] == "ParseError"
        assert manifest in err["message"] and "inputs" in err["message"]

    def test_two_inputs(self, manifest, tmp_path, capsys):
        first = json.loads(Path(manifest).read_text())["inputs"][0]
        rewrite_manifest(manifest, inputs=[first, {"path": "absent.csv", "sha256": "0" * 64}])
        code, err = self.run(["qfi", "--data", manifest, "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert manifest in err["message"] and "inputs" in err["message"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("temperature_K", None),
            ("temperature_K", float("nan")),
            ("calibration", 0),
            ("calibration", -1),
            ("q_window", [0.4]),
        ],
    )
    @pytest.mark.parametrize("command", ["qfi", "spinon"])
    def test_bad_field(self, manifest, tmp_path, capsys, command, field, value):
        rewrite_manifest(manifest, **{field: value})
        code, err = self.run([command, "--data", manifest, "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert err["error"] == "ParseError"
        assert manifest in err["message"] and field in err["message"]

    @pytest.mark.parametrize(
        "field, value, code, error, text",
        [
            ("q_window", [5.0, 6.0], 2, "WindowOutsideGrid",
             "window [5.0, 6.0] covers 0 grid points"),
            ("resolution_fwhm_meV", 1e-4, 2, "ElasticWindowMissing", "fewer than 3 bins"),
            # the Bose factor overflows, so the reduced chi'' is infinite
            ("temperature_K", 1e-5, 3, "NonPositiveValue",
             "reduced chi'' at T = 1e-05 K is not finite"),
        ],
        ids=["q window", "resolution", "temperature"],
    )
    def test_reduction_fault_names_the_manifest(self, manifest, tmp_path, capsys,
                                                field, value, code, error, text):
        rewrite_manifest(manifest, **{field: value})
        out = tmp_path / "o"
        got, err = self.run(["qfi", "--data", manifest, "--out", str(out)], capsys)
        assert (got, err["error"]) == (code, error)
        assert err["message"].startswith(f"{manifest}: {text}")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["fit-susceptibility"], ["witness", "--g", "2.1"]])
    def test_directory_as_chi_csv(self, tmp_path, capsys, command):
        argv = [command[0], str(tmp_path), *command[1:], "--out", str(tmp_path / "o")]
        code, err = self.run(argv, capsys)
        assert code == 2
        assert err["error"] == "IsADirectoryError"
        assert str(tmp_path) in err["message"]

    def test_tampered_spectrum_under_spinon(self, manifest, tmp_path, capsys):
        sqe = Path(manifest).parent / json.loads(Path(manifest).read_text())["inputs"][0]["path"]
        with open(sqe, "a") as fh:
            fh.write("\n")
        code, err = self.run(["spinon", "--data", manifest, "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert err["error"] == "ParseError"
        assert str(sqe) in err["message"] and manifest in err["message"]

    def test_spinon_records_the_verified_hash(self, manifest, tmp_path):
        out = tmp_path / "o"
        assert main(["spinon", "--data", manifest, "--out", str(out), "--deterministic"]) == 0
        entry = json.loads(Path(manifest).read_text())["inputs"][0]
        inputs = json.loads((out / "spinon_report.json").read_text())["inputs"]
        assert [i["sha256"] for i in inputs] == [sha256_of(manifest), entry["sha256"]]

    @pytest.mark.parametrize("flag", ["--freeze=C1=0.002"])
    def test_positive_c1_is_refused(self, tmp_path, capsys, flag):
        chi_csv = write_chi(tmp_path / "chi.csv", n=30)
        code, err = self.run(
            ["fit-susceptibility", str(chi_csv), flag, "--out", str(tmp_path / "o")], capsys
        )
        assert code == 2
        assert "c1" in err["message"]
        assert not (tmp_path / "o" / "fit_report.json").exists()


class TestSpectrumFaultNamesTheFile:
    def test_truncated_row_under_spinon(self, tmp_path, capsys):
        data = tmp_path / "data"
        argv = ["synth", "--temps", "0.2,0.5", "--seed", "7", "--noise", "1.0",
                "--elastic-amp", "100", "--out", str(data), "--deterministic"]
        assert main(argv) == 0
        capsys.readouterr()
        sqe, manifest = data / "sqe_T0p5.csv", data / "manifest_T0p5.json"
        lines = sqe.read_text().splitlines(keepends=True)
        lines[4] = lines[4].rsplit(",", 1)[0] + "\n"  # line 5 loses its error column
        sqe.write_text("".join(lines))
        rewrite_manifest(manifest, inputs=[{"path": sqe.name, "sha256": sha256_of(sqe)}])
        code = main(["spinon", "--data", str(manifest), "--out", str(tmp_path / "o")])
        err = single_error(capsys)
        assert code == 2
        assert err == {
            "error": "ParseError",
            "message": f"{sqe}: line 5: expected 4 fields, got 3",
        }


def write_dataset(root, grid) -> Path:
    """A spectrum CSV and its manifest under ``root``; returns the manifest."""
    root.mkdir()
    write_spectrum_csv(root / "sqe.csv", grid)
    manifest = root / "manifest.json"
    DatasetManifest(
        sample="x", temperature_K=grid.temperature, resolution_fwhm_meV=0.0175,
        q_window=(0.4, 0.8), lattice_c_A=5.32,
        inputs=[{"path": "sqe.csv", "sha256": sha256_of(root / "sqe.csv")}],
    ).save(manifest)
    return manifest


class TestSpinonGridChecks:
    """spinon refuses a grid it cannot draw or a spectrum with no rows before
    it writes anything."""

    def test_one_energy_at_or_above_zero(self, tmp_path, capsys):
        q, e = [0.4, 0.6, 0.8], [-0.1, 0.0]
        grid = SpectrumGrid(q, e, np.ones((2, 3)), np.full((2, 3), 0.1), 0.5)
        manifest = write_dataset(tmp_path / "data", grid)
        out = tmp_path / "o"
        code = main(["spinon", "--data", str(manifest), "--out", str(out), "--deterministic"])
        err = single_error(capsys)
        assert code == 2
        assert err == {
            "error": "ValueError",
            "message": f"{tmp_path / 'data' / 'sqe.csv'}: E_meV has 1 value(s) >= 0; "
            "the spinon map needs at least 2",
        }
        assert not out.exists() or not any(out.iterdir())

    def test_header_only_spectrum(self, tmp_path, capsys):
        data = tmp_path / "data"
        make_dataset(data, temps=(0.5,))
        sqe, manifest = data / "sqe_T0p5.csv", data / "manifest_T0p5.json"
        sqe.write_text("Q_invA,E_meV,intensity,error\n")
        rewrite_manifest(manifest, inputs=[{"path": sqe.name, "sha256": sha256_of(sqe)}])
        out = tmp_path / "o"
        code = main(["spinon", "--data", str(manifest), "--out", str(out)])
        err = single_error(capsys)
        assert code == 2
        assert err == {"error": "EmptyFile", "message": f"{sqe} has a header but no data rows"}
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("q", [[0.6], [0.6, 0.7]], ids=["one Q", "two Q"])
    def test_fewer_than_three_momenta(self, tmp_path, capsys, q):
        e = [-0.1, 0.0, 0.1, 0.2]
        shape = (len(e), len(q))
        grid = SpectrumGrid(q, e, np.ones(shape), np.full(shape, 0.1), 0.5)
        manifest = write_dataset(tmp_path / "data", grid)
        out = tmp_path / "o"
        code = main(["spinon", "--data", str(manifest), "--out", str(out), "--deterministic"])
        err = single_error(capsys)
        assert code == 2
        assert err == {
            "error": "ValueError",
            "message": f"{tmp_path / 'data' / 'sqe.csv'}: Q_invA has {len(q)} value(s); "
            "the powder-to-1D conversion needs at least 3",
        }
        assert not out.exists()


class TestTempsFlag:
    """qfi --model and synth share one --temps parser that refuses a bad
    entry, by position, before any output is written."""

    COMMANDS = {"qfi": ["qfi", "--model"], "synth": ["synth"]}

    @pytest.mark.parametrize(
        "temps, position, token",
        [
            ("0.1,x", 2, "x"),
            ("0.1,,0.2", 2, ""),
            ("0.1,0.2,", 3, ""),
            ("0.1,-1", 2, "-1"),
            ("0,0.5", 1, "0"),
            ("nan,0.5", 1, "nan"),
            ("0.5,inf", 2, "inf"),
        ],
    )
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_bad_entry(self, tmp_path, capsys, command, temps, position, token):
        out = tmp_path / "o"
        code = main([*self.COMMANDS[command], "--temps", temps, "--out", str(out)])
        err = single_error(capsys)
        assert code == 2
        assert err == {
            "error": "ValueError",
            "message": f"--temps entry {position} ({token!r}) must be a finite number > 0",
        }
        assert not out.exists()

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_negative_list_after_a_space_is_a_value(self, tmp_path, capsys, command):
        """``--temps -0.5,1`` reaches the --temps parser, as ``--temps=-0.5,1``
        does, and both write the same error line."""
        lines = []
        for temps in (["--temps", "-0.5,1"], ["--temps=-0.5,1"]):
            out = tmp_path / "o"
            assert main([*self.COMMANDS[command], *temps, "--out", str(out)]) == 2
            lines.append(capsys.readouterr().err)
            assert not out.exists()
        assert lines[0] == lines[1] == json.dumps({
            "error": "ValueError",
            "message": "--temps entry 1 ('-0.5') must be a finite number > 0",
        }) + "\n"

    def test_both_commands_use_the_parser(self, tmp_path, monkeypatch):
        seen = []
        parse = cli._parse_temps

        def spy(text):
            seen.append(text)
            return parse(text)

        monkeypatch.setattr(cli, "_parse_temps", spy)
        assert main(["qfi", "--model", "--temps", " 0.3, 0.6", "--out", str(tmp_path / "q"),
                     "--deterministic"]) == 0
        assert main(["synth", "--temps", "0.5", "--out", str(tmp_path / "s"),
                     "--deterministic"]) == 0
        assert seen == [" 0.3, 0.6", "0.5"]
        points = (tmp_path / "q" / "qfi_points.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in points[1:]] == ["0.3", "0.6"]


# exit code of each error class under the three tuples cli.main used to keep
# (_POLICY_ERRORS -> 4, _NUMERIC_ERRORS -> 3, everything else -> 2)
OLD_EXIT_CODES = {
    "AxisNotMonotone": 2,
    "ShapeMismatch": 2,
    "NonPositiveTemperature": 2,
    "PoleAtNonPositiveInteger": 2,
    "DomainError": 4,
    "FitDiverged": 3,
    "SingularJacobian": 3,
    "NoInteriorMaximum": 3,
    "CutoffDomainError": 4,
    "BoseFactorPole": 4,
    "GridTooCoarse": 3,
    "NonPositiveValue": 3,
    "ParseError": 2,
    "DuplicateAbscissa": 2,
    "EmptyFile": 2,
    "IncompleteGrid": 2,
    "WindowOutsideGrid": 2,
    "ElasticWindowMissing": 2,
}


def error_classes(base=ChainQfiError):
    for cls in base.__subclasses__():
        yield cls
        yield from error_classes(cls)


class TestExitCodes:
    def test_table_covers_every_error_class(self):
        assert {cls.__name__ for cls in error_classes()} == set(OLD_EXIT_CODES)

    @pytest.mark.parametrize("cls", list(error_classes()), ids=lambda c: c.__name__)
    def test_exit_code_unchanged(self, cls):
        assert cls.exit_code == OLD_EXIT_CODES[cls.__name__]

    @pytest.mark.parametrize(
        "exc, code",
        [(cls("boom"), cls.exit_code) for cls in error_classes()]
        + [(FileNotFoundError("boom"), 2), (PermissionError("boom"), 2), (ValueError("boom"), 2)],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
    )
    def test_main_returns_the_exit_code(self, monkeypatch, capsys, exc, code):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_witness", fail)
        assert main(["witness", "chi.csv", "--g", "2.1"]) == code
        assert single_error(capsys) == {"error": type(exc).__name__, "message": "boom"}


class TestNotUtf8Csv:
    """A CSV that is not UTF-8 exits 2 with a ParseError naming the file."""

    @staticmethod
    def corrupt(path, line):
        """Put a Latin-1 byte at the start of ``line``; return its offset."""
        data = path.read_bytes()
        at = sum(len(row) for row in data.splitlines(keepends=True)[: line - 1])
        path.write_bytes(data[:at] + b"\xe9" + data[at:])
        return at

    def test_chi_csv_under_witness(self, tmp_path, capsys):
        chi_csv = write_chi(tmp_path / "chi.csv")
        at = self.corrupt(chi_csv, 3)
        code = main(["witness", str(chi_csv), "--g", "2.1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert single_error(capsys) == {
            "error": "ParseError",
            "message": f"{chi_csv}: not UTF-8 text: invalid continuation byte at byte {at}",
        }

    def test_spectrum_under_spinon(self, tmp_path, capsys):
        manifest = make_dataset(tmp_path / "data", temps=(0.5,))["spectra"][0]["manifest"]
        sqe = Path(manifest).parent / json.loads(Path(manifest).read_text())["inputs"][0]["path"]
        at = self.corrupt(sqe, 40)
        rewrite_manifest(manifest, inputs=[{"path": sqe.name, "sha256": sha256_of(sqe)}])
        code = main(["spinon", "--data", manifest, "--out", str(tmp_path / "o")])
        assert code == 2
        err = single_error(capsys)
        assert err["error"] == "ParseError"
        assert err["message"].startswith(f"{sqe}: not UTF-8 text: ")
        assert err["message"].endswith(f" at byte {at}")


def write_chi_rows(path, rows):
    path.write_text("T_K,chi_emu_per_mol,sigma\n" + "".join(
        f"{float(t)!r},{float(chi)!r},0.0\n" for t, chi in rows
    ))
    return path


def chain_rows(n):
    t = np.geomspace(0.5, 300.0, n)
    return list(zip(t, chi_full(t, CHAIN)))


# chi.csv files whose fit fails after numpy has raised RuntimeWarnings
CHI_FAULTS = {
    # the Pade form overflows at T = 1e-300: the starting residual is not finite
    "T 1e-300": [(1e-300, chain_rows(12)[0][1]), *chain_rows(12)[1:]],
    # finite residuals whose squares overflow: the starting cost is not finite
    "chi 1e300": [(t, 1e300 if k in (1, 2) else chi) for k, (t, chi) in enumerate(chain_rows(4))],
}


class TestFailureWritesNothing:
    """A failing command leaves --out absent: every command computes its
    results before it creates the directory."""

    @pytest.mark.parametrize("argv", [["fit-susceptibility"], ["witness", "--g", "2.1"]],
                             ids=["fit-susceptibility", "witness"])
    def test_missing_chi_csv(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        code = main([*argv, str(tmp_path / "nope.csv"), "--out", str(out)])
        assert code == 2
        assert single_error(capsys)["error"] == "FileNotFoundError"
        assert not out.exists()

    def test_zero_signal_under_qfi(self, tmp_path, capsys):
        TestQfiCommand().test_zero_signal_refuses_scaling(tmp_path, capsys)
        assert not (tmp_path / "o").exists()

    def test_non_finite_chi_cost(self, tmp_path, capsys):
        chi_csv = write_chi_rows(tmp_path / "chi.csv", CHI_FAULTS["chi 1e300"])
        out = tmp_path / "o"
        code = main(["fit-susceptibility", str(chi_csv), "--fit-c1", "--out", str(out)])
        assert code == 3
        err = single_error(capsys)
        assert (err["error"], err["message"]) == (
            "FitDiverged", f"{chi_csv}: cost is not finite at the initial point"
        )
        assert not out.exists()


class TestOneStderrLine:
    """A failing command prints one JSON line on stderr and nothing else; the
    warnings it raised go into that line. In a fresh process no test harness
    captures warnings, so these run ``python -m chainqfi.cli``."""

    @pytest.mark.parametrize(
        "fault, flags, code, error",
        [("T 1e-300", [], 2, "ValueError"), ("chi 1e300", ["--fit-c1"], 3, "FitDiverged")],
        ids=["T 1e-300", "chi 1e300"],
    )
    def test_fit_susceptibility_in_a_fresh_process(self, tmp_path, fault, flags, code, error):
        chi_csv = write_chi_rows(tmp_path / "chi.csv", CHI_FAULTS[fault])
        out = tmp_path / "o"
        src = str(Path(chainqfi.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "chainqfi.cli", "fit-susceptibility", str(chi_csv),
             *flags, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == code
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        err = json.loads(lines[0])
        assert err["error"] == error
        assert err["message"].startswith(f"{chi_csv}: ")
        assert set(err) <= {"error", "message", "warnings"}
        assert all(set(w) == {"category", "message"} for w in err.get("warnings", []))
        if fault == "T 1e-300":
            assert {w["category"] for w in err["warnings"]} == {"RuntimeWarning"}
        assert not out.exists()

    def test_warnings_join_the_error_line(self, monkeypatch, capsys):
        def fail(args):
            warnings.warn("first", RuntimeWarning)
            warnings.warn("second", UserWarning)
            raise ValueError("boom")

        monkeypatch.setattr(cli, "cmd_witness", fail)
        assert main(["witness", "chi.csv", "--g", "2.1"]) == 2
        assert single_error(capsys) == {
            "error": "ValueError",
            "message": "boom",
            "warnings": [
                {"category": "RuntimeWarning", "message": "first"},
                {"category": "UserWarning", "message": "second"},
            ],
        }

    def test_warnings_of_a_success_are_reissued(self, monkeypatch, capsys):
        def succeed(args):
            warnings.warn("kept", UserWarning)
            return 0

        monkeypatch.setattr(cli, "cmd_witness", succeed)
        with pytest.warns(UserWarning, match="kept") as record:
            assert main(["witness", "chi.csv", "--g", "2.1"]) == 0
        assert [(w.filename, w.category) for w in record] == [(__file__, UserWarning)]
        assert capsys.readouterr().err == ""


class TestQfiDataCuts:
    def test_two_cuts_at_one_temperature(self, tmp_path):
        """Each cut's points are drawn in its own colour, also when two
        manifests share a temperature."""
        manifest = Path(make_dataset(tmp_path / "data", temps=(0.5,))["spectra"][0]["manifest"])
        doubled = manifest.with_name("manifest_doubled.json")
        doubled.write_text(manifest.read_text())
        calibration = json.loads(manifest.read_text())["calibration"]
        rewrite_manifest(doubled, calibration=calibration / 2.0)
        out = tmp_path / "out"
        code = main(["qfi", "--data", str(manifest), str(doubled), "--out", str(out),
                     "--deterministic"])
        assert code == 0
        circles = re.findall(
            r'<circle cx="([^"]+)" cy="([^"]+)" r="[^"]+" fill="([^"]+)"/>',
            (out / "chi_imag.svg").read_text(),
        )
        first = [(cx, cy) for cx, cy, fill in circles if fill == "#1f77b4"]
        second = [(cx, cy) for cx, cy, fill in circles if fill == "#d62728"]
        assert len(first) == len(second) > 0
        assert [cx for cx, _ in first] == [cx for cx, _ in second]
        assert [cy for _, cy in first] != [cy for _, cy in second]


# line-shape fit starts on the README manifests; the small amplitudes send
# trial steps to T0 at its strict-policy bound, where the model refuses
# the cutoff, and through overflowing residuals
QFI_DATA_STARTS = [["--a-starykh", a, "--t0-kelvin", t0]
                   for a in ("1e-12", "1e-8", "1e-6", "1e-4", "1e-2", "1e2")
                   for t0 in ("0.9", "1.5", "3", "10", "100")]


def test_every_qfi_data_start_fits_or_exits_3(readme_data, tmp_path):
    """From each of 30 starts the README line-shape fit reaches the default
    start's A and T0 within 1e-6, with nothing on stderr, or exits 3 with a
    message that starts with both manifests. None exits 4."""
    manifests = [str(readme_data / name) for name in ("manifest_T0p2.json", "manifest_T0p5.json")]

    def run(name, flags):
        out, err = tmp_path / name, io.StringIO()
        with redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["qfi", "--data", *manifests, "--out", str(out), "--deterministic",
                         *flags])
        stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
        if code != 0:
            return code, stderr, None
        return code, stderr, json.loads((out / "qfi_report.json").read_text())["starykh_fit"]

    code, stderr, default = run("default", [])
    assert (code, stderr) == (0, "")
    codes, wrong = [], []
    for k, flags in enumerate(QFI_DATA_STARTS):
        code, stderr, fit = run(str(k), flags)
        codes.append(code)
        if code == 0:
            ok = stderr == "" and all(
                abs(fit["parameters"][p] / default["parameters"][p] - 1.0) <= 1e-6
                for p in ("a_starykh", "t0_kelvin"))
        else:
            ok = code == 3 and json.loads(stderr)["message"].startswith(", ".join(manifests) + ": ")
        if not ok:
            wrong.append((flags, code, stderr))
    assert wrong == []
    assert (codes.count(0), codes.count(3)) == (24, 6)


def run_fresh(*args) -> subprocess.CompletedProcess:
    """``python`` with ``args`` in a fresh process, this checkout's package first."""
    src = str(Path(chainqfi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_package_import_loads_no_submodule():
    done = run_fresh("-c", "import json, sys, chainqfi; print(json.dumps(sorted(sys.modules)))")
    assert done.returncode == 0, done.stderr
    loaded = [name for name in json.loads(done.stdout) if name.startswith("chainqfi.")]
    assert loaded == []


class TestFailureKeepsItsWarnings:
    """Each command fails in a fresh process with one JSON line on stderr and
    no --out directory."""

    def test_qfi_model_strict_past_the_cutoff(self, tmp_path):
        # 0.04 and 0.5 K warn of truncation, then 3 K lies above the cutoff
        out = tmp_path / "o"
        done = run_fresh("-m", "chainqfi.cli", "qfi", "--model", "--policy", "strict",
                         "--temps", "0.04,0.5,3,6.7", "--out", str(out))
        assert done.returncode == 4
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        err = json.loads(lines[0])
        assert err["error"] == "CutoffDomainError"
        assert err["message"].startswith("T = 3 K is too close to the cutoff")
        assert [w["category"] for w in err["warnings"]] == ["TruncationWarning"] * 2
        assert not out.exists()

    def test_freeze_with_a_value_that_is_not_a_number(self, tmp_path):
        chi_csv = write_chi(tmp_path / "chi.csv")
        out = tmp_path / "o"
        done = run_fresh("-m", "chainqfi.cli", "fit-susceptibility", str(chi_csv),
                         "--freeze", "g=abc", "--out", str(out))
        assert done.returncode == 2
        assert done.stderr.splitlines() == [json.dumps({
            "error": "ValueError",
            "message": "--freeze expects a number after '=', got 'g=abc'",
        })]
        assert not out.exists()


class TestClipPolicyIsRefused:
    """Negative chi'' is always clipped, so a manifest that asks for anything
    else is refused instead of ignored."""

    @pytest.fixture
    def manifest(self, tmp_path):
        return make_dataset(tmp_path / "data", temps=(0.5,))["spectra"][0]["manifest"]

    @pytest.mark.parametrize("value", [False, None, 1, "true"])
    @pytest.mark.parametrize("command", ["qfi", "spinon"])
    def test_clip_other_than_true(self, manifest, tmp_path, capsys, command, value):
        policies = {"negative_log_policy": "strict", "clip_negative_chi_imag": value}
        rewrite_manifest(manifest, policies=policies)
        out = tmp_path / "o"
        assert main([command, "--data", manifest, "--out", str(out)]) == 2
        err = single_error(capsys)
        assert err["error"] == "ParseError"
        assert manifest in err["message"] and "policies" in err["message"]
        assert not out.exists()

    def test_clip_absent(self, manifest, tmp_path):
        rewrite_manifest(manifest, policies={})
        out = tmp_path / "o"
        assert main(["spinon", "--data", manifest, "--out", str(out), "--deterministic"]) == 0
        assert (out / "spinon_report.json").exists()


def test_unconverged_fit_names_the_file(tmp_path, monkeypatch, capsys):
    chi_csv = make_dataset(tmp_path / "data", temps=(0.5,))["chi_csv"]
    monkeypatch.setattr(fitter, "_MAX_ITERATIONS", 1)
    out = tmp_path / "o"
    assert main(["fit-susceptibility", chi_csv, "--freeze", "g=2.1", "--out", str(out)]) == 3
    assert single_error(capsys) == {
        "error": "FitDiverged",
        "message": f"{chi_csv}: susceptibility fit did not converge: maximum iterations reached",
    }
    assert not out.exists()


def stamped_run_commands(data):
    chi_csv = data["chi_csv"]
    manifests = [entry["manifest"] for entry in data["spectra"]]
    return {
        "fit-susceptibility": ["fit-susceptibility", chi_csv, "--freeze", "g=2.1"],
        "witness": ["witness", chi_csv, "--g", "2.1"],
        "qfi --model": ["qfi", "--model", "--policy", "absolute-value"],
        "qfi --data": ["qfi", "--data", *manifests],
        "spinon": ["spinon", "--data", manifests[0]],
    }


@pytest.mark.parametrize(
    "command", ["fit-susceptibility", "witness", "qfi --model", "qfi --data", "spinon"]
)
def test_stamped_run_differs_only_in_the_svg_stamp(tmp_path, command):
    """Without --deterministic every file but the SVGs is byte-identical to
    the deterministic run; each SVG gains one timestamp comment as its second
    line, and all SVGs of one run carry the same one."""
    argv = stamped_run_commands(make_dataset(tmp_path / "data"))[command]
    assert main([*argv, "--out", str(tmp_path / "plain"), "--deterministic"]) == 0
    assert main([*argv, "--out", str(tmp_path / "stamped")]) == 0
    plain, stamped = tree_bytes(tmp_path / "plain"), tree_bytes(tmp_path / "stamped")
    assert plain.keys() == stamped.keys()
    stamps = set()
    for name, body in plain.items():
        if not name.endswith(".svg"):
            assert stamped[name] == body, name
            continue
        lines = stamped[name].split(b"\n")
        stamps.add(lines.pop(1))
        assert lines == body.split(b"\n"), name
    assert len(stamps) == 1
    stamp = re.fullmatch(rb"<!-- generated (\S+) -->", stamps.pop())
    assert datetime.fromisoformat(stamp[1].decode()).tzinfo is not None


# argv (given the dataset that ``make_dataset`` wrote) -> the one error message;
# each input is a number or scale out of range, refused before any output
SCALAR_FAULTS = {
    "qfi --a-starykh inf": (
        lambda d: ["qfi", "--model", "--temps", "0.1,0.2", "--a-starykh", "inf"],
        "a_starykh must be a finite number > 0, got inf",
    ),
    "qfi --t0-kelvin inf": (
        lambda d: ["qfi", "--model", "--temps", "0.1,0.2", "--t0-kelvin", "inf"],
        "t0_kelvin must be a finite number > 0, got inf",
    ),
    "qfi --z -1": (
        lambda d: ["qfi", "--model", "--temps", "0.1,0.2", "--z", "-1"],
        "--z must be a finite number > 0, got -1.0",
    ),
    "qfi --z inf": (
        lambda d: ["qfi", "--model", "--temps", "0.1,0.2,0.3", "--z", "inf"],
        "--z must be a finite number > 0, got inf",
    ),
    "qfi --omega-max inf": (
        lambda d: ["qfi", "--model", "--temps", "0.1,0.2", "--omega-max", "inf"],
        "--omega-max must be a finite number > 0, got inf",
    ),
    "qfi --data --omega-max 0": (
        lambda d: ["qfi", "--data", d["spectra"][0]["manifest"], "--omega-max", "0"],
        "--omega-max must be a finite number > 0, got 0.0",
    ),
    "qfi --j-kelvin inf": (
        lambda d: ["qfi", "--model", "--j-kelvin", "inf"],
        "--j-kelvin must be a finite number > 0, got inf",
    ),
    "qfi --data --temps": (
        lambda d: ["qfi", "--data", d["spectra"][0]["manifest"], "--temps", "9,9"],
        "--temps is for qfi --model; qfi --data reads each temperature from its manifest",
    ),
    "spinon --j-kelvin inf": (
        lambda d: ["spinon", "--data", d["spectra"][0]["manifest"], "--j-kelvin", "inf"],
        "--j-kelvin must be a finite number > 0, got inf",
    ),
    "witness --g inf": (
        lambda d: ["witness", d["chi_csv"], "--g", "inf"],
        "g_factor must be a finite number > 0, got inf",
    ),
    "synth --g inf": (
        lambda d: ["synth", "--temps", "0.2", "--g", "inf"],
        "g_factor must be a finite number > 0, got inf",
    ),
    "synth --lattice-c inf": (
        lambda d: ["synth", "--temps", "0.2", "--lattice-c", "inf"],
        "lattice_c must be a finite number > 0, got inf",
    ),
    "synth --noise -1": (
        lambda d: ["synth", "--temps", "0.2", "--noise", "-1"],
        "noise_level must be a finite number >= 0, got -1.0",
    ),
    "synth --noise inf": (
        lambda d: ["synth", "--temps", "0.2", "--noise", "inf"],
        "noise_level must be a finite number >= 0, got inf",
    ),
    "synth --chi-noise nan": (
        lambda d: ["synth", "--temps", "0.2", "--chi-noise", "nan"],
        "chi_noise_level must be a finite number >= 0, got nan",
    ),
    "synth --elastic-amp inf": (
        lambda d: ["synth", "--temps", "0.2", "--elastic-amp", "inf"],
        "elastic_amplitude must be a finite number, got inf",
    ),
    "synth --flat-bg -inf": (
        lambda d: ["synth", "--temps", "0.2", "--flat-bg=-inf"],
        "flat_background must be a finite number, got -inf",
    ),
    "synth --c0 inf": (
        lambda d: ["synth", "--temps", "0.2", "--c0", "inf"],
        "c0 must be a finite number, got inf",
    ),
    "synth --c1 nan": (
        lambda d: ["synth", "--temps", "0.2", "--c1", "nan"],
        "c1 must be a finite number <= 0, got nan",
    ),
}


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    return make_dataset(tmp_path_factory.mktemp("data"), temps=(0.5,))


@pytest.mark.parametrize("case", list(SCALAR_FAULTS))
def test_scalar_out_of_range_exits_2_before_any_output(small_dataset, tmp_path, capsys, case):
    argv, message = SCALAR_FAULTS[case]
    out = tmp_path / "o"
    assert main([*argv(small_dataset), "--out", str(out)]) == 2
    # no "warnings" key: the refusal comes before any computation could warn
    assert single_error(capsys) == {"error": "ValueError", "message": message}
    assert not out.exists()


# synth commands whose computation fails after part of the dataset is made
SYNTH_FAULTS = {
    "zero calibration": (
        ["--temps", "0.2,0.5", "--lattice-c", "0.01"],
        "calibration must be a finite number > 0, got 0.0",
    ),
    "infinite counts": (
        ["--temps", "0.2", "--a-starykh", "1e308"],
        "synthetic counts or errors at T = 0.2 K are not finite",
    ),
    "noisy infinite counts": (
        ["--temps", "0.2,0.5", "--a-starykh", "1e308", "--noise", "1"],
        "synthetic counts or errors at T = 0.2 K are not finite",
    ),
    "infinite chi": (
        ["--temps", "0.2", "--g", "1e200"],
        "synthetic chi or sigma at T = 0.5 K is not finite",
    ),
    "shared file name": (
        ["--temps", "0.2,0.2000001"],
        "two temperatures share the file name sqe_T0p2.csv",
    ),
}


@pytest.mark.parametrize("case", list(SYNTH_FAULTS))
def test_failing_synth_writes_nothing(tmp_path, capsys, case):
    argv, message = SYNTH_FAULTS[case]
    out = tmp_path / "o"
    assert main(["synth", *argv, "--out", str(out)]) == 2
    err = single_error(capsys)
    assert (err["error"], err["message"]) == ("ValueError", message)
    assert not out.exists()


def test_synth_prints_nothing(tmp_path, capsys):
    assert main(["synth", "--temps", "0.5", "--out", str(tmp_path / "d"), "--deterministic"]) == 0
    assert capsys.readouterr() == ("", "")
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == [
        "chi.csv", "generation.json", "manifest_T0p5.json", "sqe_T0p5.csv"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        lambda d: ["synth", "--temps", "0.2", "--g", "1e200"],
        lambda d: ["witness", d["chi_csv"], "--g", "1e200"],
        lambda d: ["fit-susceptibility", d["chi_csv"], "--g0", "1e200"],
        lambda d: ["fit-susceptibility", d["chi_csv"], "--freeze", "g=1e200"],
    ],
    ids=["synth", "witness", "fit --g0", "fit --freeze"],
)
def test_huge_g_exits_2_without_a_traceback(small_dataset, tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main([*argv(small_dataset), "--out", str(out)]) == 2
    assert single_error(capsys)["error"] == "ValueError"
    assert not out.exists()


def test_witness_refuses_j_kelvin(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["witness", "x.csv", "--g", "2.0", "--j-kelvin", "3.1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --j-kelvin 3.1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["witness", "x.csv", "--g", "2.0", "--bogus"], "unrecognized arguments: --bogus"),
        (["witness", "x.csv", "--g", "abc"], "argument --g: invalid float value: 'abc'"),
        (["witness", "x.csv"], "the following arguments are required: --g"),
        (["qfi", "--temps", "0.5"], "one of the arguments --model --data is required"),
        (["synth", "--temps"], "argument --temps: expected one argument"),
        (["fit-susceptibility", "chi.csv", "--c00", "0"], "unrecognized arguments: --c00 0"),
    ],
    ids=["unknown flag", "bad float", "missing --g", "missing --model", "missing value",
         "no start flag for C0"],
)
def test_argparse_error_is_one_json_line(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--out", str(out), *argv[1:]])
    assert exc.value.code == 2
    assert single_error(capsys) == {"error": "ArgumentError", "message": message}
    assert not out.exists()


def test_argparse_error_in_a_fresh_process(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(chainqfi.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "chainqfi.cli", "witness", "x.csv", "--g", "abc"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert [json.loads(line) for line in done.stderr.splitlines()] == [
        {"error": "ArgumentError", "message": "argument --g: invalid float value: 'abc'"}
    ]


@pytest.mark.parametrize("value", ["-1e308", "-inf", "-2"])
@pytest.mark.parametrize("joined", [False, True], ids=["--g v", "--g=v"])
def test_negative_flag_value_reaches_the_range_rule(tmp_path, capsys, value, joined):
    out = tmp_path / "o"
    g = [f"--g={value}"] if joined else ["--g", value]
    assert main(["synth", *g, "--temps", "0.5", "--out", str(out)]) == 2
    shown = {"-1e308": "-1e+308", "-2": "-2.0"}.get(value, value)
    assert single_error(capsys) == {
        "error": "ValueError", "message": f"g_factor must be a finite number > 0, got {shown}"
    }
    assert not out.exists()


def test_qfi_failure_after_the_f_q_loop_keeps_its_warnings(tmp_path, monkeypatch, capsys):
    """The F_Q warnings join the error line also when the scaling fit fails."""
    def fail(points, z):
        raise NonPositiveValue("the scaling fit failed")

    monkeypatch.setattr(qfi, "fit_scaling", fail)
    out = tmp_path / "o"
    code = main(["qfi", "--model", "--policy", "absolute-value", "--temps", "0.04,0.5,3,6.7",
                 "--out", str(out)])
    assert code == 3
    err = single_error(capsys)
    assert (err["error"], err["message"]) == ("NonPositiveValue", "the scaling fit failed")
    assert [w["category"] for w in err["warnings"]] == ["TruncationWarning"] * 4
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--a-starykh", "1e307"), ("--t0-kelvin", "1e308"), ("--omega-max", "1e308"),
])
def test_finite_flag_whose_f_q_overflows_exits_3(tmp_path, capsys, flag, value):
    """A flag that passes the finite-number rule can still overflow chi''; the
    first F_Q that is not finite is refused, naming its temperature."""
    out = tmp_path / "o"
    code = main(["qfi", "--model", "--policy", "absolute-value", flag, value, "--out", str(out)])
    assert code == 3
    err = single_error(capsys)
    assert err["error"] == "NonPositiveValue"
    assert err["message"].startswith("F_Q at T = 0.04 K is not finite")
    # the quadrature stops at the first non-finite estimate instead of
    # splitting to its panel limit
    assert "QuadratureLimitWarning" not in {w["category"] for w in err.get("warnings", [])}
    assert not out.exists()


def test_largest_a_starykh_below_the_overflow_still_runs(tmp_path):
    out = tmp_path / "o"
    code = main(["qfi", "--model", "--policy", "absolute-value", "--a-starykh", "1e306",
                 "--out", str(out), "--deterministic"])
    assert code == 0
    report = json.loads((out / "qfi_report.json").read_text())
    assert all(math.isfinite(p["F_Q"]) and math.isfinite(p["err"]) for p in report["points"])


def test_zero_f_q_names_its_temperature_and_manifest(tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    manifests = []
    q, e = np.linspace(0.15, 1.5, 20), np.linspace(-0.195, 1.005, 61)
    for k, t in enumerate((0.5, 0.6, 0.7)):
        sqe = data_dir / f"sqe_{k}.csv"
        write_spectrum_csv(sqe, SpectrumGrid(q, e, np.zeros((61, 20)), np.zeros((61, 20)), t))
        manifests.append(data_dir / f"manifest_{k}.json")
        DatasetManifest(
            sample="null", temperature_K=t, resolution_fwhm_meV=0.0175,
            q_window=(0.4, 1.1), lattice_c_A=5.32,
            inputs=[{"path": sqe.name, "sha256": sha256_of(sqe)}],
        ).save(manifests[-1])
    out = tmp_path / "o"
    code = main(["qfi", "--data", *map(str, manifests), "--out", str(out)])
    assert code == 3
    err = single_error(capsys)
    assert (err["error"], err["message"]) == (
        "NonPositiveValue",
        f"{manifests[0]}: F_Q at T = 0.5 K must be a finite number > 0, got 0.0; "
        "the log-log fit takes ln F_Q",
    )
    assert not out.exists()


@pytest.mark.parametrize("mode", ["model", "data"])
def test_qfi_refuses_one_distinct_temperature_by_name(tmp_path, capsys, mode):
    """Three equal temperatures leave the scaling fit one abscissa: a
    ValueError (exit 2) naming it, not numpy's 'Singular matrix'."""
    if mode == "model":
        argv, named = ["qfi", "--model", "--temps", "0.2,0.2,0.2"], "0.2"
    else:
        manifest = make_dataset(tmp_path / "data", temps=(0.5,))["spectra"][0]["manifest"]
        argv, named = ["qfi", "--data", manifest, manifest, manifest], "0.5"
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    err = single_error(capsys)
    assert (err["error"], err["message"]) == (
        "ValueError",
        f"the scaling fit needs at least 2 distinct temperatures, got only T = {named} K",
    )
    assert not out.exists()
