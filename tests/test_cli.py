import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chainqfi
from chainqfi.cli import build_parser, main
from chainqfi.core import ChainParameters, SpectrumGrid
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
            out[os.path.relpath(full, root)] = open(full, "rb").read()
    return out


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
                "qfi", "--model", "--policy", "strict",
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
        data = json.loads(open(manifest_path).read())
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
