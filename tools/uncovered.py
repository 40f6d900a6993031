"""The statements of src/failprop that no tier-1 test executes.

    python3 tools/uncovered.py [PYTEST_ARGS...]

Runs the test suite (default: `tests`, as tier-1 runs it) in this process
under a `sys.settrace` line tracer, then prints, per module of
src/failprop, each statement that never ran: its line number and its first
line of source. A statement is a node of the module's `ast` whose own lines
(a compound statement's header, a decorated definition's decorators) hold
bytecode; one runs when a line event lands on any of those lines.

The report is printed whatever the tests' outcome: tracing slows every
traced frame, so a test with a time bound (AC01) can fail under it.
A forked worker (`n_jobs > 1`) keeps the tracer of the thread that forked
it, and writes each line it is the first to run to a file of its own in a
temporary directory as it runs it (a `register_at_fork` hook opens the
file); the report merges those files. Tests that start a fresh
interpreter are not traced, so what only they run is reported as not
executed.
Only the standard library is used, besides pytest itself to run the suite.
"""

from __future__ import annotations

import ast
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "failprop"


def executable_lines(code) -> set[int]:
    """The lines that hold bytecode in `code` and every code object in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def statements(tree: ast.Module) -> list[ast.stmt]:
    """Every statement of `tree` except docstrings, in source order."""
    out = []
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list):  # a lambda's or an IfExp's body is an expression
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                    and body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            out += body
        # an except handler or a match case is a node of its own, with a body
        for name in ("orelse", "finalbody"):
            block = getattr(node, name, None)
            if isinstance(block, list):
                out += block
    return sorted(out, key=lambda s: (s.lineno, s.col_offset))


def own_lines(stmt: ast.stmt) -> range:
    """The lines of `stmt` that are not inside a statement it contains."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(first, body[0].lineno)
    return range(first, stmt.end_lineno + 1)


def uncovered(path: Path, executed: set[int]) -> list[tuple[int, str]]:
    """(line, first source line) of each statement of `path` that never ran."""
    text = path.read_text()
    source = text.splitlines()
    executable = executable_lines(compile(text, str(path), "exec"))
    out = []
    for stmt in statements(ast.parse(text)):
        own = executable.intersection(own_lines(stmt))
        if own and not own & executed:
            out.append((stmt.lineno, source[stmt.lineno - 1].strip()))
    return out


def main(argv: list[str]) -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC.parent))
    traced = {str(p): set() for p in SRC.glob("*.py")}
    spool = Path(tempfile.mkdtemp(prefix="uncovered-"))
    spill = []  # in a forked worker: the file that takes each line it runs first

    def ran(path, lines, lineno):
        """Record a line not seen before."""
        lines.add(lineno)
        if spill:
            spill[0].write(f"{path}\t{lineno}\n")

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        lines = traced.get(path)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno not in lines:
                ran(path, lines, frame.f_lineno)
            return local

        if frame.f_lineno not in lines:
            ran(path, lines, frame.f_lineno)
        return local

    # a worker's line is written as it runs: the caller may kill the worker
    # as soon as it has its results, before any exit handler could write them
    os.register_at_fork(after_in_child=lambda: spill.append(
        open(spool / str(os.getpid()), "w", buffering=1)))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    forks = list(spool.iterdir())
    for part in forks:
        for row in part.read_text().splitlines():
            path, lineno = row.split("\t")
            traced[path].add(int(lineno))
    shutil.rmtree(spool)

    print(f"\ntests exited with status {int(status)}; with the lines of {len(forks)} "
          "forked worker(s), statements never executed (fresh interpreters are not traced):")
    total = 0
    for path in sorted(SRC.glob("*.py")):
        missed = uncovered(path, traced[str(path)])
        total += len(missed)
        print(f"{path.name}: {len(missed)}")
        for line, text in missed:
            print(f"  {line:>4}  {text}")
    print(f"total: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
