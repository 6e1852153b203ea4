"""Count the code lines of a Python package: lines with a token that is not a comment.

A line counts when it holds part of a statement; blank lines, comment lines
and docstrings (the leading string of a module, class or function) do not.
Run from the repository root:

    python tools/code_lines.py

It prints the total for the ``*.py`` files of ``src/capcomp``.
"""

import ast
import io
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> None:
    total = sum(code_lines(path.read_text()) for path in sorted(Path("src/capcomp").glob("*.py")))
    print(f"src/capcomp: {total} code lines")


if __name__ == "__main__":
    main()
