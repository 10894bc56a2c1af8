"""The output trees of the six README commands hash as committed in
``readme_digests.txt``; a change to any README output shows in the diff."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_trees_match_the_committed_digests():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "readme_trees.py"), str(ROOT / "src")],
        capture_output=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (ROOT / "tests" / "readme_digests.txt").read_bytes()
