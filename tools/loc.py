"""Code lines per module of the package, without docstrings, comments or
blank lines.

    python3 tools/loc.py [ROOT]

ROOT is a checkout of this repository (default: the one this script lives
in).  A line counts when a token other than a comment, a line break or an
indentation change starts on it or a multi-line token spans it (`tokenize`),
unless it lies in a docstring: the string that opens a module, class or
function body (`ast`).  The script prints each module of
`src/gadgetforge` with its count, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in the module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIP and tok.type != tokenize.ENCODING:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> None:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else HERE
    total = 0
    for path in sorted((root / "src" / "gadgetforge").glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.stem:16} {n:6,}")
    print(f"{'total':16} {total:6,}")


if __name__ == "__main__":
    main()
