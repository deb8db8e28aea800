#!/usr/bin/env python3
"""List the statements of src/cswsat that no test executes.

Runs pytest in this process under a `sys.settrace` line tracer that
records the lines run in frames whose code lives in src/cswsat, then
prints each statement that holds bytecode but none of whose lines ran, as
`path:line: source`, and a count. A compound statement (def, if, for,
try, except, ...) counts by its header lines alone. Arguments go to
pytest unchanged, and the exit status is pytest's. It needs nothing but
the standard library and pytest.

    python scripts/line_coverage.py                      # the whole suite
    python scripts/line_coverage.py -x tests/test_solver.py

Code that runs only in a child process, such as a shim solver started by
an external backend, is not traced, so it shows as not executed. Tracing
makes the suite about three times slower.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cswsat"


def code_lines(code) -> set:
    """The lines holding bytecode in `code` and in the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(tree: ast.Module):
    """(first line, lines) of each statement and except clause, docstrings
    left out; a compound statement's lines are those before its body."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None
    }
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.excepthandler)) or id(node) in docstrings:
            continue
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        yield node.lineno, range(node.lineno, last + 1)


def missed(path: Path, hits: set) -> list:
    """(line, source) of each statement of `path` with bytecode and no hit."""
    source = path.read_text()
    has_code = code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    return sorted(
        (first, text[first - 1].strip())
        for first, lines in statements(ast.parse(source))
        if has_code.intersection(lines) and not hits.intersection(lines)
    )


def main(args) -> int:
    executed = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}
    # one recorder per source file, None for a file outside src/cswsat: a
    # recorder returns itself, a reference cycle, so none may be made per
    # call, or the suite's tests of cycle-free runs would find them
    recorders = {}

    def recorder(hits: set):
        def record(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return record

        return record

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return recorders[name]
        except KeyError:
            hits = executed.get(os.path.realpath(name))
            record = recorders[name] = None if hits is None else recorder(hits)
            return record

    # trace before pytest imports cswsat, so module-level lines count
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name, hits in executed.items():
        path = Path(name)
        for line, text in missed(path, hits):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
            total += 1
    print(f"{total} statements of src/cswsat not executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
