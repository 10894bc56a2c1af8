"""``fit-susceptibility`` names its file when the fitted model's peak search
fails, as it does when the fit itself fails."""
import json

from chainqfi import suscept
from chainqfi.cli import main
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
