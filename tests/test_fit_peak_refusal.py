"""``fit-susceptibility`` names its file when the fitted model's peak search
fails, as it does when the fit itself fails."""
import json

from chainqfi.cli import main


def test_unbracketed_model_maximum_names_the_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "data", "--deterministic"]) == 0
    capsys.readouterr()
    # from g0 = 1e12 the fit ends at J ~ 4e5 K, whose peak lies far above the search grid
    assert main(["fit-susceptibility", "data/chi.csv", "--g0", "1e12", "--out", "out"]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "NoInteriorMaximum",
        "message": "data/chi.csv: susceptibility maximum is not bracketed by the grid",
    }
    assert not (tmp_path / "out").exists()
