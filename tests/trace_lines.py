"""The lines of ``src/netrw`` that no test executes.

Runs the test suite in this process under ``sys.settrace``, recording
each line executed in a file of ``src/netrw``, then prints each line of
code that never ran, grouped by the innermost function or class that holds
it.  Lines of code are those that the compiled modules attribute
instructions to; a function's ``def`` line runs when its module is
imported.  Code run in a subprocess (the command-line tests that start
``python -m netrw.cli``) is not seen.

Usage, from the repository root (the whole suite takes about 4 minutes;
extra arguments go to pytest):

    python tests/trace_lines.py [-x] [tests/test_cli.py ...]

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "netrw"


def code_lines(path: Path) -> dict[int, str]:
    """Each line of code in the file, with the qualified name of the
    innermost function or class whose code holds it ("<module>" at the top
    level)."""
    owner: dict[int, str] = {}

    def walk(code: types.CodeType, name: str) -> None:
        for _, _, line in code.co_lines():
            if line is not None:
                owner[line] = name
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, const.co_qualname)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "<module>")
    return owner


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """The exit code of pytest over ``pytest_args``, and the lines executed
    in each source file, by path."""
    import pytest

    prefix = str(SRC) + "/"
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        # only frames of the package get line events
        if frame.f_code.co_filename.startswith(prefix):
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    code, ran = run_traced(argv or [str(ROOT / "tests")])
    total = missed = 0
    print()
    for path in sorted(SRC.glob("*.py")):
        owner = code_lines(path)
        seen = ran.get(str(path), set())
        unrun = defaultdict(list)
        for line in sorted(owner):
            if line not in seen:
                unrun[owner[line]].append(line)
        total += len(owner)
        missed += sum(map(len, unrun.values()))
        for name, lines in unrun.items():
            print(f"{path.relative_to(ROOT)}:{name}: {' '.join(map(str, lines))}")
    print(f"\n{missed} of {total} lines of code not executed (pytest exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
