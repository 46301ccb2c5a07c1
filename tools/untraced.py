"""The statements of the package that the fast test suite never runs.

    python3 tools/untraced.py

Runs `pytest -m "not slow"` on the tests of the checkout this script lives
in, in this process, under a `sys.settrace` line tracer, and prints each
statement of `src/gadgetforge` that no traced line reached, as
`module:line text`, in file and line order, then their count.  It always
runs the whole fast suite: a part of it would list as never run what the
tests left out cover.  The script exits with pytest's own code.

A statement counts as run when any line of its own holds code and was
traced: the lines of its span less those of the statements nested in it,
so an `if` is its test, and a function its `def` line and decorators,
which run at import.  An `except` clause is a statement of its own.  A
statement with no code of its own (`else:`, a docstring) is never listed.
It lists statements, not conditions: an `if` whose test always takes one
side, or an `and`/`or` operand that always reads the same value, has run,
and is not listed.

Only this process is traced: a test that runs the package in a subprocess
(the CLI fuzz, `python -O` checks, the import-set probes) adds nothing to
what counts as run.  The run writes nothing into the checkout: no
bytecode (`PYTHONDONTWRITEBYTECODE=1`, also for those subprocesses) and no
pytest cache (`-p no:cacheprovider`).  A code object is traced until all
of its lines have run, so hot loops cost little once covered.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
PACKAGE = HERE / "src" / "gadgetforge"


def code_lines(code) -> set[int]:
    """The lines holding code in `code` and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(tree: ast.Module) -> list[tuple[int, set[int]]]:
    """Each statement and `except` clause as (first line, its own lines):
    its span less the spans of the statements and clauses nested in it."""
    units = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.stmt, ast.ExceptHandler))
    ]
    out = []
    for node in units:
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        own = set(range(first, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, (ast.stmt, ast.ExceptHandler)):
                own -= set(range(child.lineno, child.end_lineno + 1))
        out.append((first, own))
    return out


def main() -> int:
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    ours = str(PACKAGE) + os.sep
    # per code object of the package, its lines not yet traced, and the
    # local tracer that strikes them off
    left: dict = {}
    tracers: dict = {}

    def tracer(todo: set[int]):
        def local(frame, event, arg):
            todo.discard(frame.f_lineno)
            return local if todo else None

        return local

    def call(frame, event, arg):
        code = frame.f_code
        local = tracers.get(code)
        if local is None:
            if not code.co_filename.startswith(ours):
                tracers[code] = False
                return None
            left[code] = {line for _, _, line in code.co_lines() if line is not None}
            local = tracers[code] = tracer(left[code])
        elif local is False:
            return None
        # entered: its first line ran, which no line event reports
        todo = left[code]
        todo.discard(code.co_firstlineno)
        return local if todo else None

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(call)
    try:
        import pytest

        status = pytest.main(
            ["-q", "-m", "not slow", "-p", "no:cacheprovider",
             "--rootdir", str(HERE), str(HERE / "tests")]
        )
    finally:
        sys.settrace(None)
    ran: dict[str, set[int]] = {}
    for code, todo in left.items():
        lines = {line for _, _, line in code.co_lines() if line is not None}
        ran.setdefault(code.co_filename, set()).update(lines - todo)
    missing = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        hit = ran.get(str(path), set())
        has_code = code_lines(compile(text, str(path), "exec"))
        for first, own in sorted(statements(ast.parse(text))):
            own &= has_code
            if own and not own & hit:
                missing += 1
                print(f"{path.stem}:{first} {source[first - 1].strip()}")
    print(f"{missing} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
