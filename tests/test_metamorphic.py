"""Relations between runs of ``qfi --data`` on the README dataset that need
no oracle: transform the input, predict the output."""
import hashlib
import json
import random
from pathlib import Path

import pytest

from chainqfi.cli import main

README_SYNTH = ["synth", "--temps", "0.2,0.5", "--seed", "7", "--noise", "1.0",
                "--elastic-amp", "100", "--deterministic"]
MANIFESTS = ["manifest_T0p2.json", "manifest_T0p5.json"]
# swapping the manifests moves A by 7.3e-9 and T0 by 2.7e-8 relative: the
# stopping rule of the fit, not a fault
SWAP_RTOL = 1e-7


@pytest.fixture(scope="module")
def readme_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("data")
    assert main([*README_SYNTH, "--out", str(data)]) == 0
    return data


def qfi_data(manifests, out) -> dict:
    """The output tree of ``qfi --data`` as ``{file name: bytes}``."""
    assert main(["qfi", "--data", *map(str, manifests), "--out", str(out),
                 "--deterministic"]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def shuffled_copy(data: Path, dest: Path) -> Path:
    """A copy of the README dataset with the data rows of each spectrum in
    random order and each manifest's sha256 re-stamped."""
    dest.mkdir()
    rng = random.Random(11)
    for name in MANIFESTS:
        manifest = json.loads((data / name).read_text())
        entry = manifest["inputs"][0]
        header, *rows = (data / entry["path"]).read_text().splitlines(keepends=True)
        rng.shuffle(rows)
        text = "".join([header, *rows])
        (dest / entry["path"]).write_text(text)
        entry["sha256"] = hashlib.sha256(text.encode()).hexdigest()
        (dest / name).write_text(json.dumps(manifest))
    return dest


def test_shuffled_rows_change_only_the_input_hashes(readme_data, tmp_path):
    shuffled = shuffled_copy(readme_data, tmp_path / "shuffled")
    before = qfi_data([readme_data / m for m in MANIFESTS], tmp_path / "a")
    after = qfi_data([shuffled / m for m in MANIFESTS], tmp_path / "b")
    assert before.keys() == after.keys()
    reports = [json.loads(tree.pop("qfi_report.json")) for tree in (before, after)]
    assert before == after
    inputs = [report.pop("inputs") for report in reports]
    assert reports[0] == reports[1]
    assert [e["sha256"] for e in inputs[0]] != [e["sha256"] for e in inputs[1]]


def test_swapped_manifests_permute_the_points(readme_data, tmp_path):
    forward = json.loads(
        qfi_data([readme_data / m for m in MANIFESTS], tmp_path / "a")["qfi_report.json"]
    )
    swapped = json.loads(
        qfi_data([readme_data / m for m in reversed(MANIFESTS)], tmp_path / "b")
        ["qfi_report.json"]
    )
    assert swapped["points"] == forward["points"][::-1]
    assert swapped["elastic_subtraction"] == forward["elastic_subtraction"][::-1]
    for name in ("a_starykh", "t0_kelvin"):
        assert swapped["starykh_fit"]["parameters"][name] == pytest.approx(
            forward["starykh_fit"]["parameters"][name], rel=SWAP_RTOL, abs=0.0
        )
