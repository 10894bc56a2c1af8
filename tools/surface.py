"""Print three size counts of the chainqfi package.

    python tools/surface.py [SRC]

SRC (default: the ``src`` directory of this checkout) is searched first for
the package. The counts are

* ``lines``: the lines of ``SRC/chainqfi/*.py``, as ``cat ... | wc -l`` counts;
* ``defaulted_parameters``: the parameters that have a default, by
  ``inspect.signature``, over every function of each module, every method
  (static and class methods included) of each class, and every dataclass
  field, through the ``__init__`` its dataclass generates;
* ``cli_flags``: the optional flags of each subcommand of
  ``chainqfi.cli.build_parser``, ``--help`` left out; a flag that several
  subcommands share counts once per subcommand.
"""
from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path


def _defaulted(func) -> int:
    params = inspect.signature(func).parameters.values()
    return sum(p.default is not inspect.Parameter.empty for p in params)


def defaulted_parameters(modules) -> int:
    """Defaulted parameters of the functions and class methods each module
    defines; an import of a name from another module is not counted again."""
    total = 0
    for module in modules:
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                total += _defaulted(obj)
            elif inspect.isclass(obj):
                for member in vars(obj).values():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        total += _defaulted(member)
    return total


def cli_flags(parser: argparse.ArgumentParser) -> int:
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sum(
        1
        for sub in subparsers.choices.values()
        for action in sub._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    )


def main(argv: list[str]) -> int:
    src = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src").resolve()
    sys.path.insert(0, str(src))
    package = importlib.import_module("chainqfi")
    if Path(package.__file__).resolve().parent != src / "chainqfi":
        print(f"chainqfi was imported from {package.__file__}, not from {src}", file=sys.stderr)
        return 1
    modules = [package] + [
        importlib.import_module(f"chainqfi.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]
    files = (src / "chainqfi").glob("*.py")
    lines = sum(path.read_bytes().count(b"\n") for path in files)
    print(f"lines {lines}")
    print(f"defaulted_parameters {defaulted_parameters(modules)}")
    print(f"cli_flags {cli_flags(importlib.import_module('chainqfi.cli').build_parser())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
