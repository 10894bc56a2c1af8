"""Run chainqfi commands in one fresh process through ``chainqfi.cli.main``.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC is ``{"commands": [{"key": ..., "argv": [...]}, ...], "trace": bool}``.
The worker first times ``import chainqfi.cli`` (nothing else is imported
before it, so the time is what a fresh ``python -m chainqfi.cli`` pays),
then runs each command in order in the current directory, capturing its
stdout and stderr. With ``trace`` set it installs the span wrappers from
``spans.py`` after the import and records one ``cli.main`` span per command.
RESULT receives the import time, each command's exit code, time, stderr and
traceback, and the spans and counts of a traced run.
"""
import sys
import time

_t0 = time.perf_counter()
import chainqfi.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402


def _run(argv):
    """cli.main(argv) -> (exit code or None, captured stderr, traceback text)."""
    err = io.StringIO()
    tb = ""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse errors
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            rc, tb = None, traceback.format_exc()
    return rc, err.getvalue(), tb


def main() -> None:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.install()
    commands = []
    for cmd in spec["commands"]:
        if tracer is not None:
            tracer.counts.clear()
            root = len(tracer.spans)
            tracer.open("cli.main")
        start = time.perf_counter()
        rc, stderr, tb = _run(cmd["argv"])
        seconds = time.perf_counter() - start
        record = {"key": cmd["key"], "rc": rc, "seconds": seconds, "stderr": stderr,
                  "traceback": tb, "scipy_loaded": "scipy" in sys.modules}
        if tracer is not None:
            tracer.close()
            record["root_span"] = root
            record["counts"] = dict(tracer.counts)
        commands.append(record)
    result = {"import_s": IMPORT_S, "chainqfi_file": cli.__file__, "commands": commands}
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
