"""``fit-susceptibility`` names its file when the fitted model's peak search
fails, as it does when the fit itself fails, and refuses a fit whose chi(T)
peak lies outside data that have a peak of their own."""
import io
import json
from contextlib import redirect_stderr

import numpy as np
import pytest

from chainqfi import pipeline_io, suscept
from chainqfi.cli import main
from chainqfi.core import ChainParameters
from chainqfi.errors import NoInteriorMaximum


def test_unbracketed_model_maximum_names_the_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "data", "--deterministic"]) == 0
    capsys.readouterr()

    def unbracketed(params):
        raise NoInteriorMaximum("susceptibility maximum is not bracketed by the grid")

    # the peak search fails as it would for a fitted J whose peak lies beyond its grid
    monkeypatch.setattr(suscept, "find_tmax_model", unbracketed)
    assert main(["fit-susceptibility", "data/chi.csv", "--out", "out"]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "NoInteriorMaximum",
        "message": "data/chi.csv: susceptibility maximum is not bracketed by the grid",
    }
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def readme_root(tmp_path_factory):
    """A directory holding the README dataset (J = 3.1 K) in ``data/``."""
    root = tmp_path_factory.mktemp("readme")
    assert main(["synth", "--temps", "0.2,0.5", "--seed", "7", "--noise", "1.0",
                 "--elastic-amp", "100", "--out", str(root / "data"), "--deterministic"]) == 0
    return root


FLAG_SETS = [[], ["--fit-c1"], ["--impurity-curie"]]
START_SWEEP = [
    ["--g0", g, *flags]
    for g in [f"1e{k}" for k in range(-3, 13)] + ["2.1"]
    for flags in FLAG_SETS
] + [
    ["--j0", j, *flags]
    for j in ["1e-3", "1e-2", "0.1", "0.3", "1", "10", "30", "100", "1e3", "1e4", "1e5", "1e6"]
    for flags in FLAG_SETS + [["--freeze", "g=2.1"]]
]


# a fit that recovers J rejects its overflowing trial steps without a warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_start_recovers_j_or_exits_3(readme_root, monkeypatch):
    """The 99-start sweep on the README chi.csv (J = 3.1 K): 73 starts
    recover J within 0.1 % and the other 26 are refused with FitDiverged
    naming the file. None exits 0 with another J, and none exits 2."""
    monkeypatch.chdir(readme_root)
    assert len(START_SWEEP) == 99
    wrong, recovered = [], 0
    for k, start in enumerate(START_SWEEP):
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(["fit-susceptibility", "data/chi.csv", "--out", f"sweep/{k}",
                         "--deterministic", *start])
        if code == 0:
            report = json.loads((readme_root / "sweep" / str(k) / "fit_report.json").read_text())
            j = report["fit"]["parameters"]["j_over_kb"]
            if abs(j / 3.1 - 1.0) > 1e-3:
                wrong.append((start, code, j))
            else:
                recovered += 1
        else:
            line = json.loads(err.getvalue())
            if code != 3 or line["error"] != "FitDiverged" or \
                    not line["message"].startswith("data/chi.csv: fit reached J = "):
                wrong.append((start, code, line))
    assert wrong == []
    assert recovered == 73


def test_far_fit_names_the_model_and_data_peaks(readme_root, monkeypatch, capsys):
    monkeypatch.chdir(readme_root)
    argv = ["fit-susceptibility", "data/chi.csv", "--out", "far", "--j0", "0.3",
            "--impurity-curie"]
    assert main(argv) == 3
    line = json.loads(capsys.readouterr().err)
    assert line["error"] == "FitDiverged"
    assert line["message"].startswith("data/chi.csv: fit reached J = 0.201 K, g = 3.14: its "
                                      "chi(T) peaks at 0.1287 K, outside the data's 0.5 to "
                                      "300 K, where the data peak at ")
    assert not (readme_root / "far").exists()


def test_data_without_a_peak_are_not_refused(tmp_path):
    """Sampled on 5-300 K only, a J = 3.1 K curve falls all the way (its peak
    is at 1.99 K), so no data peak exists to hold the model's against."""
    t = np.geomspace(5.0, 300.0, 40)
    chi = suscept.chi_full(t, ChainParameters(j_over_kb=3.1, g_factor=2.1))
    curve = suscept.SusceptibilityCurve(t, chi, 1e-3 * chi)
    pipeline_io.write_susceptibility_csv(tmp_path / "chi.csv", curve)
    assert main(["fit-susceptibility", str(tmp_path / "chi.csv"), "--out",
                 str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "fit_report.json").read_text())
    assert report["t_max_data_K"] is None
    assert report["t_max_model_K"] < 5.0
    assert abs(report["fit"]["parameters"]["j_over_kb"] / 3.1 - 1.0) < 1e-3
