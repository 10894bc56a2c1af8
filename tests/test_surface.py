"""The knob counts of ``tools/surface.py`` are as committed in
``surface_counts.txt``; a new defaulted parameter or CLI flag shows in the
diff. The line count moves with every change and is not recorded."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_knob_counts_match_the_committed_record():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "surface.py"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    counts = [line for line in done.stdout.splitlines() if not line.startswith("lines ")]
    assert counts == (ROOT / "tests" / "surface_counts.txt").read_text().splitlines()
