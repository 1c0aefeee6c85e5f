"""List the functions of the ktasep package that no tier-1 test enters.

Runs the tier-1 suite (tests/) in this process under a call tracer
(sys.settrace and threading.settrace) that records every code object of
src/ktasep a test enters, then compares those with every function defined
there (each ``def``, nested ones included; lambdas and comprehensions are
not counted).  Functions on the allowlist are listed but do not fail:

* ``__repr__`` and ``__str__`` methods, which f-strings, messages and
  debuggers reach implicitly;
* ``RationalFn.__hash__``, which only raises, and ``Partition.__iter__``,
  which unpacking and ``list()`` reach implicitly;
* everything in ``cli.py``, whose commands the tests run in subprocesses,
  which this tracer does not see.

Usage: python scripts/unreached.py [extra pytest arguments]

Exits 0 when every function off the allowlist is entered, 1 when some is
not (each is printed), and 2 when the suite itself fails, since the trace
of a failing run proves nothing.  Standard library and pytest only.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the package, for this process and, as the tier-1 command sets it, for the
# CLI subprocesses the tests start
SRC = str(ROOT / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

import ktasep  # noqa: E402  (after the path above)

PACKAGE = Path(ktasep.__file__).resolve().parent

ALLOWED_NAMES = {"__repr__", "__str__"}
ALLOWED = {"exactalg.RationalFn.__hash__", "partitions.Partition.__iter__"}
ALLOWED_MODULES = {"cli"}


def defined_functions() -> dict:
    """(file, first line of the code object) -> "module.qualname" for every
    def in the package.  A decorated function's code starts at its first
    decorator, as CPython numbers it."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, prefix + [child.name])
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    out[str(path), first] = ".".join([module] + prefix + [child.name])
                    visit(child, prefix + [child.name, "<locals>"])
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), [])
    return out


def allowed(name: str) -> bool:
    module, *_, function = name.split(".")
    return module in ALLOWED_MODULES or function in ALLOWED_NAMES or name in ALLOWED


def main(argv: list) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    entered = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename, code.co_firstlineno))
        return None  # no line events: a call is all that is recorded

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"unreached: the test suite failed (pytest exit {int(status)}); no verdict")
        return 2
    unreached = [name for key, name in sorted(defined_functions().items()) if key not in entered]
    failing = [name for name in unreached if not allowed(name)]
    print(f"unreached: {len(unreached)} functions no test enters, "
          f"{len(unreached) - len(failing)} of them allowed")
    for name in unreached:
        print(f"  {'allowed ' if allowed(name) else 'UNREACHED'} {name}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
