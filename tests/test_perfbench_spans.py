"""The traced benchmark's span wrappers against the package as it stands.

``perfbench/spans.py`` wraps chainqfi functions by module attribute name;
a refactor that renames or deletes one of them fails here, in the test
suite, and not only in a traced benchmark run."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_spans_install_finds_every_wrapped_name():
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "import chainqfi, spans\n"
        f"assert chainqfi.__file__.startswith({str(ROOT / 'src')!r}), chainqfi.__file__\n"
        "spans.install()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
